// Package synth generates synthetic live social video streams with
// ground-truth anomaly labels — the stand-in for the paper's 212 hours of
// Bilibili/Twitch footage (see DESIGN.md for the substitution argument).
//
// The generative process mirrors the paper's application scenario (Fig. 3):
//
//   - A presenter moves through latent behaviour states (the "item
//     pattern": suit → tie → shirt …), each with its own visual appearance
//     (frame descriptors) and salience.
//   - Audience excitement follows presenter salience with decay and noise;
//     comment volume and vocabulary follow excitement.
//   - In feedback-enabled presets (INF, TWI) the presenter reacts to
//     audience excitement with a delay of one or more seconds, exactly the
//     mutual influence CLSTM is built to capture. SPE and TED disable the
//     feedback loop ("the comments from audience can not be received by
//     speakers"), which is why the paper finds CLSTM == CLSTM-S there.
//   - Injected anomalies are "captivating actions": the visual change is
//     modest (anomalous and normal events are visually similar — the case
//     the paper says defeats vision-only detectors) while the audience
//     reaction is strong and breaks the normal excitement dynamics.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"aovlis/internal/comments"
	"aovlis/internal/stream"
)

// Preset describes one of the four dataset families of the paper.
type Preset struct {
	// Name is the paper's dataset name: INF, SPE, TED or TWI.
	Name string
	// States is the number of normal presenter behaviour states.
	States int
	// MeanDwellSec is the mean dwell time per state in seconds.
	MeanDwellSec float64
	// Feedback enables the presenter→audience→presenter loop closure.
	Feedback bool
	// FeedbackDelaySec is the presenter's reaction delay to audience
	// excitement, in seconds (must be ≥ 1 for the lag to be observable
	// through the coupled recurrence).
	FeedbackDelaySec int
	// BaseCommentRate / ExciteCommentRate parameterise comment volume.
	BaseCommentRate   float64
	ExciteCommentRate float64
	// ExciteDecay (ρ), ExciteGain (κ) and ExciteNoise drive the excitement
	// recurrence e_{t+1} = ρ·e_t + κ·salience_t + noise. The equilibrium
	// κ·salience/(1−ρ) must stay well below 1 so anomaly bursts are
	// distinguishable from normally-salient content.
	ExciteDecay float64
	ExciteGain  float64
	ExciteNoise float64
	// FeedbackThreshold is the (delayed) excitement level above which a
	// feedback-enabled presenter advances early. It must be reachable by
	// normal dynamics, otherwise the feedback loop never operates.
	FeedbackThreshold float64
	// AnomalyRatePerMin is the expected number of injected anomalies per
	// minute of (non-anomaly-free) stream.
	AnomalyRatePerMin float64
	// AnomalyDurSec is the mean anomaly duration in seconds.
	AnomalyDurSec float64
	// AnomalyVisualShift ∈ [0,1] blends the anomalous visual appearance
	// with the current normal state (small = visually similar to normal).
	AnomalyVisualShift float64
	// AnomalyExciteBoost is the excitement injection during an anomaly.
	AnomalyExciteBoost float64
	// DescriptorDim is the frame descriptor dimensionality.
	DescriptorDim int
	// DescriptorNoise is the per-frame descriptor noise level.
	DescriptorNoise float64
}

// INF models influencer product-promotion streams: strong two-way
// interaction, high comment volume.
func INF() Preset {
	return Preset{
		Name: "INF", States: 8, MeanDwellSec: 45,
		Feedback: true, FeedbackDelaySec: 2,
		BaseCommentRate: 2, ExciteCommentRate: 10,
		ExciteDecay: 0.6, ExciteGain: 0.25, ExciteNoise: 0.05,
		FeedbackThreshold: 0.38,
		AnomalyRatePerMin: 0.5, AnomalyDurSec: 8,
		AnomalyVisualShift: 0.32, AnomalyExciteBoost: 0.55,
		DescriptorDim: 16, DescriptorNoise: 0.15,
	}
}

// SPE models formal speech videos: no presenter feedback, sparse comments.
func SPE() Preset {
	return Preset{
		Name: "SPE", States: 5, MeanDwellSec: 30,
		Feedback: false, FeedbackDelaySec: 2,
		BaseCommentRate: 1.5, ExciteCommentRate: 8,
		ExciteDecay: 0.6, ExciteGain: 0.2, ExciteNoise: 0.04,
		FeedbackThreshold: 0.38,
		AnomalyRatePerMin: 0.4, AnomalyDurSec: 10,
		AnomalyVisualShift: 0.32, AnomalyExciteBoost: 0.5,
		DescriptorDim: 16, DescriptorNoise: 0.12,
	}
}

// TED models TED-style talks: expert speakers, moderate engagement, no
// real-time feedback loop.
func TED() Preset {
	return Preset{
		Name: "TED", States: 6, MeanDwellSec: 25,
		Feedback: false, FeedbackDelaySec: 2,
		BaseCommentRate: 2, ExciteCommentRate: 9,
		ExciteDecay: 0.6, ExciteGain: 0.22, ExciteNoise: 0.045,
		FeedbackThreshold: 0.38,
		AnomalyRatePerMin: 0.45, AnomalyDurSec: 9,
		AnomalyVisualShift: 0.32, AnomalyExciteBoost: 0.52,
		DescriptorDim: 16, DescriptorNoise: 0.13,
	}
}

// TWI models Twitch gaming streams: fast two-way interaction, very high
// comment volume, noisier visuals.
func TWI() Preset {
	return Preset{
		Name: "TWI", States: 10, MeanDwellSec: 35,
		Feedback: true, FeedbackDelaySec: 1,
		BaseCommentRate: 4, ExciteCommentRate: 14,
		ExciteDecay: 0.5, ExciteGain: 0.3, ExciteNoise: 0.06,
		FeedbackThreshold: 0.36,
		AnomalyRatePerMin: 0.6, AnomalyDurSec: 7,
		AnomalyVisualShift: 0.35, AnomalyExciteBoost: 0.6,
		DescriptorDim: 16, DescriptorNoise: 0.18,
	}
}

// Presets returns the four dataset presets in the paper's order.
func Presets() []Preset { return []Preset{INF(), SPE(), TED(), TWI()} }

// PresetByName returns the preset with the given (case-sensitive) name.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("synth: unknown preset %q (want INF, SPE, TED or TWI)", name)
}

// Options configures one generated stream.
type Options struct {
	Preset Preset
	// DurationSec is the stream length in seconds.
	DurationSec int
	// AnomalyFree suppresses anomaly injection (training prefixes are
	// normal-only, matching the paper's unsupervised training protocol).
	AnomalyFree bool
	// Seed fixes the generator.
	Seed int64
	// FPS is frames per second (defaults to stream.DefaultFPS).
	FPS int
}

// Stream is one generated live stream.
type Stream struct {
	// Frames is the frame series at FPS frames per second.
	Frames []stream.Frame
	// Comments is the time-sorted audience comment stream.
	Comments []comments.Comment
	// DurationSec is the stream length in seconds.
	DurationSec int
	// FPS is the frame rate.
	FPS int
	// Excitement is the per-second audience excitement trace (diagnostics).
	Excitement []float64
	// AnomalyIntervals lists injected [start, end) anomaly spans in seconds.
	AnomalyIntervals [][2]float64
}

// stateDescriptor returns the deterministic visual direction of a latent
// state (normal or anomalous), unit-normalised.
func stateDescriptor(state, dim int) []float64 {
	rng := rand.New(rand.NewSource(int64(state)*7919 + 13))
	d := make([]float64, dim)
	var norm float64
	for i := range d {
		d[i] = rng.NormFloat64()
		norm += d[i] * d[i]
	}
	norm = math.Sqrt(norm)
	for i := range d {
		d[i] /= norm
	}
	return d
}

// stateSalience returns a state's deterministic salience in [0.2, 0.8].
func stateSalience(state int) float64 {
	rng := rand.New(rand.NewSource(int64(state)*104729 + 7))
	return 0.2 + 0.6*rng.Float64()
}

// Generate produces a stream according to opt.
func Generate(opt Options) (*Stream, error) {
	p := opt.Preset
	if p.States <= 0 || p.DescriptorDim <= 0 {
		return nil, fmt.Errorf("synth: preset %q has non-positive States/DescriptorDim", p.Name)
	}
	if opt.DurationSec <= 0 {
		return nil, fmt.Errorf("synth: DurationSec must be positive, got %d", opt.DurationSec)
	}
	fps := opt.FPS
	if fps == 0 {
		fps = stream.DefaultFPS
	}
	if fps < 0 {
		return nil, fmt.Errorf("synth: FPS must be positive, got %d", fps)
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// --- anomaly schedule ---
	var intervals [][2]float64
	if !opt.AnomalyFree && p.AnomalyRatePerMin > 0 {
		t := 0.0
		for {
			gap := rng.ExpFloat64() * 60 / p.AnomalyRatePerMin
			if gap < 15 {
				gap = 15 // keep anomalies separated
			}
			t += gap
			dur := p.AnomalyDurSec * (0.7 + 0.6*rng.Float64())
			if t+dur >= float64(opt.DurationSec) {
				break
			}
			intervals = append(intervals, [2]float64{t, t + dur})
			t += dur
		}
	}
	inAnomaly := func(sec float64) bool {
		for _, iv := range intervals {
			if sec >= iv[0] && sec < iv[1] {
				return true
			}
		}
		return false
	}

	// A stream revisits its few latent states every second, and deriving a
	// state's salience or direction seeds a generator of its own: do it once
	// per state. (Anomalous directions are one per second and stay inline.)
	salience := make([]float64, p.States)
	direction := make([][]float64, p.States)
	for st := range salience {
		salience[st] = stateSalience(st)
		direction[st] = stateDescriptor(st, p.DescriptorDim)
	}

	// --- per-second latent simulation ---
	type secState struct {
		state    int
		salience float64
		anomal   bool
	}
	secs := make([]secState, opt.DurationSec)
	excitement := make([]float64, opt.DurationSec)

	state := 0
	dwellLeft := sampleDwell(rng, p.MeanDwellSec)
	excite := 0.25
	history := make([]float64, 0, opt.DurationSec) // excitement history for delayed feedback
	sinceSwitch := 0                               // refractory clock for feedback-driven advances

	for t := 0; t < opt.DurationSec; t++ {
		anomal := inAnomaly(float64(t))
		cur := state
		sal := salience[cur]
		if anomal {
			// A captivating action: salience spikes; the visual state is a
			// blend handled at frame emission below.
			sal = 0.95
		}
		secs[t] = secState{state: cur, salience: sal, anomal: anomal}
		excitement[t] = excite
		history = append(history, excite)

		// Audience dynamics: excitement follows salience, with an extra
		// boost during anomalies (audience "reacts strongly"). The boost
		// arrives in waves (~3 s period with jitter): crowds burst in
		// volleys of "666"/"wow" rather than a sustained plateau, so
		// mid-anomaly comment volume keeps departing from the dynamics a
		// model could learn on normal data.
		boost := 0.0
		if anomal {
			wave := 0.65 + 0.35*math.Sin(2*math.Pi*float64(t)/3.0+rng.Float64())
			boost = p.AnomalyExciteBoost * wave
		}
		excite = p.ExciteDecay*excite + p.ExciteGain*sal + boost + p.ExciteNoise*rng.NormFloat64()
		if excite < 0 {
			excite = 0
		}
		if excite > 1 {
			excite = 1
		}

		// Presenter dynamics.
		dwellLeft--
		sinceSwitch++
		advance := dwellLeft <= 0
		if p.Feedback && sinceSwitch >= 5 {
			// The presenter reacts to *delayed* audience excitement: high
			// excitement makes them move on to capitalise on attention
			// (after a short refractory period — nobody switches items every
			// second). This is normal behaviour only a coupled model can
			// predict, because the excitement innovations are visible solely
			// in the audience stream.
			d := t - p.FeedbackDelaySec
			if d >= 0 && history[d] > p.FeedbackThreshold {
				advance = true
			}
		}
		// The normal progression freezes during an anomaly (the presenter is
		// absorbed in the captivating action).
		if advance && !anomal {
			state = (state + 1) % p.States
			dwellLeft = sampleDwell(rng, p.MeanDwellSec)
			sinceSwitch = 0
		}
	}

	// --- frame emission ---
	// Presenters transition between behaviours smoothly: the emitted visual
	// direction is an exponential blend toward the current target, so a
	// normal state switch produces a gradual, persistence-predictable
	// feature trajectory instead of an abrupt jump that would flood the
	// detectors with false positives.
	frames := make([]stream.Frame, 0, opt.DurationSec*fps)
	anomalyCount := 0
	prevAnomal := false
	var smooth []float64
	const blend = 0.45 // per-second progress toward the target direction
	for t := 0; t < opt.DurationSec; t++ {
		ss := secs[t]
		if ss.anomal && !prevAnomal {
			anomalyCount++
		}
		prevAnomal = ss.anomal
		target := direction[ss.state] // read-only from here on
		if ss.anomal {
			// A captivating action (Fig. 1: wobbling the balance board):
			// visually close to the current normal state, but the small
			// anomalous component changes every second, so the segment is
			// neither identical to normal content nor trivially
			// predictable from persistence.
			anomDir := stateDescriptor(10000+anomalyCount*97+t, p.DescriptorDim)
			mixed := make([]float64, p.DescriptorDim)
			for i := range mixed {
				mixed[i] = (1-p.AnomalyVisualShift)*target[i] + p.AnomalyVisualShift*anomDir[i]
			}
			target = mixed
		}
		if smooth == nil {
			smooth = append([]float64(nil), target...)
		} else {
			for i := range smooth {
				smooth[i] = (1-blend)*smooth[i] + blend*target[i]
			}
		}
		dir := smooth
		for fi := 0; fi < fps; fi++ {
			desc := make([]float64, p.DescriptorDim)
			for i := range desc {
				desc[i] = dir[i] + p.DescriptorNoise*rng.NormFloat64()
			}
			st := ss.state
			if ss.anomal {
				st = 10000 + anomalyCount
			}
			frames = append(frames, stream.Frame{
				Index:      t*fps + fi,
				Descriptor: desc,
				State:      st,
				Anomalous:  ss.anomal,
			})
		}
	}

	// --- comments ---
	gen := comments.NewGenerator(p.BaseCommentRate, p.ExciteCommentRate)
	cs := gen.Generate(rng, excitement)

	return &Stream{
		Frames:           frames,
		Comments:         cs,
		DurationSec:      opt.DurationSec,
		FPS:              fps,
		Excitement:       excitement,
		AnomalyIntervals: intervals,
	}, nil
}

// sampleDwell draws a dwell time ≥ 3 s with the given mean.
func sampleDwell(rng *rand.Rand, mean float64) int {
	d := int(rng.ExpFloat64() * mean)
	if d < 3 {
		d = 3
	}
	return d
}

// Segments slices the stream with the standard segmenter and attaches
// comments and labels.
func (s *Stream) Segments() ([]stream.Segment, error) {
	seg := stream.NewSegmenter()
	seg.FPS = s.FPS
	segs, err := seg.Segment(s.Frames)
	if err != nil {
		return nil, err
	}
	stream.AttachComments(segs, s.Comments)
	return segs, nil
}
