// Package loadgen generates deterministic, seeded open-loop load for the
// serve.DetectorPool SLO harness (ISSUE 7).
//
// The generator draws arrival times from a nonhomogeneous Poisson process
// via thinning (Lewis & Shedler): candidate arrivals are drawn from a
// homogeneous process at the profile's peak rate and accepted with
// probability rate(t)/peak. Everything — arrival times, channel
// assignment, feature vectors — comes from one seeded PRNG, so a fixed
// (Config, Seed) pair yields a bit-identical schedule; Hash pins that.
// Features are drawn as a per-channel base point plus shifts and Gaussian
// jitter; the action block is then mapped onto the probability simplex
// (see simplex), the form feature.Pipeline's action features take.
//
// The load is OPEN-LOOP: Replay paces submissions by the schedule's
// arrival times regardless of how fast the system under test drains them.
// That is the property that makes overload reachable — a closed loop
// self-throttles and can never push the pool past its watermarks.
package loadgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	"aovlis/internal/mat"
)

// Shape selects the offered-load profile.
type Shape int

const (
	// Steady offers BaseRate for the whole duration.
	Steady Shape = iota
	// FlashCrowd offers BaseRate except inside the window
	// [SpikeStart, SpikeStart+SpikeDur), where it jumps to PeakRate — the
	// "live event" profile from the paper's streaming setting.
	FlashCrowd
	// RaidBrigade is FlashCrowd's hostile twin: inside the spike window the
	// rate jumps to PeakRate AND a RaidFraction of arrivals converge on one
	// target channel with features shifted RaidOffset along a seeded raid
	// direction — coordinated brigading, the anomaly the detector must call.
	RaidBrigade
	// SlowBurnDrift offers a steady rate whose per-channel feature base
	// drifts linearly over the run (Drift at t=Duration along a seeded unit
	// direction per channel) — the gradual distribution shift that starves a
	// frozen model and exercises the updater's retrain path.
	SlowBurnDrift
)

func (s Shape) String() string {
	switch s {
	case Steady:
		return "steady"
	case FlashCrowd:
		return "flash-crowd"
	case RaidBrigade:
		return "raid-brigade"
	case SlowBurnDrift:
		return "slow-burn-drift"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// Config parameterises one schedule.
type Config struct {
	Shape Shape
	// Seed fixes the PRNG; equal configs with equal seeds produce
	// bit-identical schedules.
	Seed int64
	// Duration is the span of the offered stream.
	Duration time.Duration
	// BaseRate and PeakRate are arrivals per second. PeakRate is ignored
	// for Steady.
	BaseRate float64
	PeakRate float64
	// SpikeStart/SpikeDur position the FlashCrowd window.
	SpikeStart time.Duration
	SpikeDur   time.Duration
	// Channels spreads arrivals uniformly over channel ids "ch-0".."ch-N-1".
	Channels int
	// ActionDim and AudienceDim size the feature vectors.
	ActionDim   int
	AudienceDim int
	// Jitter scales the Gaussian perturbation around each channel's base
	// feature pattern (default 0.05 when zero).
	Jitter float64
	// RaidTarget is the channel index RaidBrigade converges on.
	RaidTarget int
	// RaidFraction is the probability an in-window RaidBrigade arrival is
	// redirected to RaidTarget (default 0.8 when zero).
	RaidFraction float64
	// RaidOffset is the feature-space magnitude of the raid shift (default
	// 1.5 when zero) — large enough that raid segments are genuinely
	// anomalous relative to Jitter.
	RaidOffset float64
	// Drift is the feature-space displacement SlowBurnDrift reaches at
	// t=Duration (default 1.0 when zero).
	Drift float64
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: Duration must be positive, got %v", c.Duration)
	}
	if c.BaseRate <= 0 {
		return fmt.Errorf("loadgen: BaseRate must be positive, got %g", c.BaseRate)
	}
	if c.Shape != Steady && c.Shape != SlowBurnDrift && c.PeakRate < c.BaseRate {
		return fmt.Errorf("loadgen: PeakRate %g below BaseRate %g", c.PeakRate, c.BaseRate)
	}
	if c.Shape == FlashCrowd || c.Shape == RaidBrigade {
		if c.SpikeDur <= 0 {
			return fmt.Errorf("loadgen: %v needs positive SpikeDur, got %v", c.Shape, c.SpikeDur)
		}
		if c.SpikeStart < 0 || c.SpikeStart+c.SpikeDur > c.Duration {
			return fmt.Errorf("loadgen: spike window [%v,%v) outside [0,%v)",
				c.SpikeStart, c.SpikeStart+c.SpikeDur, c.Duration)
		}
	}
	if c.Shape == RaidBrigade {
		if c.RaidTarget < 0 || c.RaidTarget >= c.Channels {
			return fmt.Errorf("loadgen: RaidTarget %d outside [0,%d)", c.RaidTarget, c.Channels)
		}
		if c.RaidFraction < 0 || c.RaidFraction > 1 {
			return fmt.Errorf("loadgen: RaidFraction %g outside [0,1]", c.RaidFraction)
		}
	}
	if c.Drift < 0 {
		return fmt.Errorf("loadgen: Drift must be non-negative, got %g", c.Drift)
	}
	if c.Channels <= 0 {
		return fmt.Errorf("loadgen: Channels must be positive, got %d", c.Channels)
	}
	if c.ActionDim <= 0 || c.AudienceDim <= 0 {
		return fmt.Errorf("loadgen: feature dims must be positive, got %d/%d", c.ActionDim, c.AudienceDim)
	}
	return nil
}

// RateAt returns the offered rate (arrivals/second) at offset t.
func (c Config) RateAt(t time.Duration) float64 {
	switch c.Shape {
	case FlashCrowd, RaidBrigade:
		if t >= c.SpikeStart && t < c.SpikeStart+c.SpikeDur {
			return c.PeakRate
		}
		return c.BaseRate
	default:
		return c.BaseRate
	}
}

// peakRate returns the thinning envelope — the maximum of RateAt.
func (c Config) peakRate() float64 {
	if c.Shape == Steady {
		return c.BaseRate
	}
	return math.Max(c.BaseRate, c.PeakRate)
}

// ExpectedArrivals integrates RateAt over the duration — the mean of the
// (Poisson-distributed) schedule length.
func (c Config) ExpectedArrivals() float64 {
	secs := c.Duration.Seconds()
	switch c.Shape {
	case FlashCrowd, RaidBrigade:
		return c.BaseRate*(secs-c.SpikeDur.Seconds()) + c.PeakRate*c.SpikeDur.Seconds()
	default:
		return c.BaseRate * secs
	}
}

// ChannelID returns the id of channel i, matching Arrival.Channel.
func ChannelID(i int) string { return fmt.Sprintf("ch-%d", i) }

// Arrival is one offered segment.
type Arrival struct {
	// At is the offset from stream start.
	At      time.Duration
	Channel string
	// ChannelIndex is the integer behind Channel.
	ChannelIndex int
	// Action is a probability vector; Audience is unconstrained.
	Action   []float64
	Audience []float64
}

// Schedule is a fully materialised offered stream.
type Schedule struct {
	Cfg      Config
	Arrivals []Arrival
}

// New draws the complete schedule for cfg. Deterministic: equal cfg
// (including Seed) ⇒ bit-identical schedule.
func New(cfg Config) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.05
	}
	if cfg.RaidFraction == 0 {
		cfg.RaidFraction = 0.8
	}
	if cfg.RaidOffset == 0 {
		cfg.RaidOffset = 1.5
	}
	if cfg.Shape == SlowBurnDrift && cfg.Drift == 0 {
		cfg.Drift = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-channel base patterns: a fixed point in feature space per
	// channel, drawn once so every arrival on a channel is a small
	// perturbation of the same "normal" segment — matching how the SLO
	// harness trains its detectors.
	base := make([][]float64, cfg.Channels)
	for i := range base {
		v := make([]float64, cfg.ActionDim+cfg.AudienceDim)
		for j := range v {
			v[j] = rng.Float64()
		}
		base[i] = v
	}

	// Adversarial direction vectors, drawn AFTER the bases so BaseFeatures'
	// re-derivation stays valid for every shape.
	dims := cfg.ActionDim + cfg.AudienceDim
	var raidDir []float64
	if cfg.Shape == RaidBrigade {
		raidDir = unitVector(rng, dims)
	}
	var driftDirs [][]float64
	if cfg.Shape == SlowBurnDrift && cfg.Drift > 0 {
		driftDirs = make([][]float64, cfg.Channels)
		for i := range driftDirs {
			driftDirs[i] = unitVector(rng, dims)
		}
	}

	peak := cfg.peakRate()
	est := int(cfg.ExpectedArrivals())
	arrivals := make([]Arrival, 0, est+4*int(math.Sqrt(float64(est)))+16)
	var t float64 // seconds
	limit := cfg.Duration.Seconds()
	for {
		t += rng.ExpFloat64() / peak
		if t >= limit {
			break
		}
		at := time.Duration(t * float64(time.Second))
		if rng.Float64()*peak > cfg.RateAt(at) {
			continue // thinned
		}
		ci := rng.Intn(cfg.Channels)
		raid := false
		if cfg.Shape == RaidBrigade && at >= cfg.SpikeStart && at < cfg.SpikeStart+cfg.SpikeDur {
			if rng.Float64() < cfg.RaidFraction {
				ci = cfg.RaidTarget
				raid = true
			}
		}
		shift := func(j int) float64 {
			var s float64
			if raid {
				s += cfg.RaidOffset * raidDir[j]
			}
			if driftDirs != nil {
				s += cfg.Drift * (t / limit) * driftDirs[ci][j]
			}
			return s
		}
		a := Arrival{At: at, Channel: ChannelID(ci), ChannelIndex: ci,
			Action:   make([]float64, cfg.ActionDim),
			Audience: make([]float64, cfg.AudienceDim)}
		for j := range a.Action {
			a.Action[j] = base[ci][j] + shift(j) + cfg.Jitter*rng.NormFloat64()
		}
		simplex(a.Action)
		for j := range a.Audience {
			a.Audience[j] = base[ci][cfg.ActionDim+j] + shift(cfg.ActionDim+j) + cfg.Jitter*rng.NormFloat64()
		}
		arrivals = append(arrivals, a)
	}
	return &Schedule{Cfg: cfg, Arrivals: arrivals}, nil
}

// simplex maps a drawn action point onto the probability simplex in place:
// negative mass is clipped to zero and the rest normalised to sum 1
// (uniform if nothing is left). The exact JS reconstruction error is then
// finite, and a shift keeps its share of the vector instead of being
// flattened the way a softmax flattens it.
func simplex(v []float64) {
	for j, x := range v {
		v[j] = max(x, 0)
	}
	if !mat.Normalize(v) {
		for j := range v {
			v[j] = 1 / float64(len(v))
		}
	}
}

// unitVector draws a uniformly random direction.
func unitVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	var norm float64
	for j := range v {
		v[j] = rng.NormFloat64()
		norm += v[j] * v[j]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		v[0], norm = 1, 1
	}
	for j := range v {
		v[j] /= norm
	}
	return v
}

// PresetNames lists the adversarial presets in conformance order.
func PresetNames() []string { return []string{"flash-crowd", "raid-brigade", "slow-burn-drift"} }

// AdversarialPreset returns the named adversarial program sized for the
// conformance suite: a short, seeded schedule whose hostile window (or
// drift) occupies a deterministic slice of the run. Callers may rescale
// Duration/rates; everything else is part of the preset's identity.
func AdversarialPreset(name string, seed int64, channels, actionDim, audienceDim int) (Config, error) {
	cfg := Config{
		Seed:        seed,
		Duration:    2 * time.Second,
		BaseRate:    60,
		Channels:    channels,
		ActionDim:   actionDim,
		AudienceDim: audienceDim,
	}
	switch name {
	case "flash-crowd":
		cfg.Shape = FlashCrowd
		cfg.PeakRate = 360
		cfg.SpikeStart = cfg.Duration / 4
		cfg.SpikeDur = cfg.Duration / 4
	case "raid-brigade":
		cfg.Shape = RaidBrigade
		cfg.PeakRate = 300
		cfg.SpikeStart = cfg.Duration / 3
		cfg.SpikeDur = cfg.Duration / 3
		cfg.RaidTarget = 0
		cfg.RaidFraction = 0.8
		cfg.RaidOffset = 1.5
	case "slow-burn-drift":
		cfg.Shape = SlowBurnDrift
		cfg.Drift = 1.2
	default:
		return Config{}, fmt.Errorf("loadgen: unknown adversarial preset %q (have %v)", name, PresetNames())
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Hash returns the SHA-256 of the schedule's full content (arrival times,
// channels, features) in hex. This is the reproducibility witness the SLO
// harness records: the OFFERED stream is bit-identical for a fixed seed
// even though rejection points under real timing are not.
func (s *Schedule) Hash() string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(len(s.Arrivals)))
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		put(uint64(a.At))
		put(uint64(a.ChannelIndex))
		for _, v := range a.Action {
			put(math.Float64bits(v))
		}
		for _, v := range a.Audience {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BaseFeatures returns channel i's unperturbed feature point split into
// (action, audience), the action block mapped onto the simplex as New maps
// arrivals — the pattern a channel's arrivals scatter around. It
// re-derives the same per-channel bases New drew, without materialising a
// schedule.
func BaseFeatures(cfg Config, i int) (action, audience []float64) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := make([]float64, cfg.ActionDim+cfg.AudienceDim)
	for c := 0; c <= i; c++ {
		for j := range v {
			v[j] = rng.Float64()
		}
	}
	simplex(v[:cfg.ActionDim])
	return v[:cfg.ActionDim], v[cfg.ActionDim:]
}

// Replay paces the schedule in real time (open loop): each arrival is
// handed to submit at its scheduled offset from the replay start,
// regardless of how earlier submissions fared. submit must not block, or
// pacing degrades — hand the arrival to the pool and return. Replay
// returns when the last arrival has been submitted.
func (s *Schedule) Replay(submit func(Arrival)) {
	start := time.Now()
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		if wait := a.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		submit(*a)
	}
}
