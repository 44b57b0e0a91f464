package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"aovlis/internal/mat"
)

func TestPresetsComplete(t *testing.T) {
	ps := Presets()
	if len(ps) != 4 {
		t.Fatalf("%d presets", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
		if p.States <= 0 || p.DescriptorDim <= 0 || p.MeanDwellSec <= 0 {
			t.Fatalf("preset %s has invalid basics", p.Name)
		}
	}
	for _, want := range []string{"INF", "SPE", "TED", "TWI"} {
		if !names[want] {
			t.Fatalf("missing preset %s", want)
		}
	}
	// The paper's structural claim: INF/TWI have the feedback loop, SPE/TED
	// do not.
	inf, _ := PresetByName("INF")
	spe, _ := PresetByName("SPE")
	ted, _ := PresetByName("TED")
	twi, _ := PresetByName("TWI")
	if !inf.Feedback || !twi.Feedback || spe.Feedback || ted.Feedback {
		t.Fatal("feedback flags do not match the paper's dataset semantics")
	}
	if inf.FeedbackDelaySec < 1 || twi.FeedbackDelaySec < 1 {
		t.Fatal("feedback delay must be ≥ 1 s for the coupling to be learnable")
	}
}

func TestPresetByNameUnknown(t *testing.T) {
	if _, err := PresetByName("NOPE"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestGenerateBasicShape(t *testing.T) {
	s, err := Generate(Options{Preset: INF(), DurationSec: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Frames) != 60*25 {
		t.Fatalf("frames = %d, want 1500", len(s.Frames))
	}
	if len(s.Excitement) != 60 {
		t.Fatalf("excitement trace length %d", len(s.Excitement))
	}
	for _, e := range s.Excitement {
		if e < 0 || e > 1 {
			t.Fatalf("excitement out of range: %v", e)
		}
	}
	for i, f := range s.Frames {
		if f.Index != i {
			t.Fatalf("frame %d has index %d", i, f.Index)
		}
		if len(f.Descriptor) != INF().DescriptorDim {
			t.Fatalf("descriptor dim %d", len(f.Descriptor))
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Options{Preset: INF(), DurationSec: 0}); err == nil {
		t.Fatal("zero duration accepted")
	}
	bad := INF()
	bad.States = 0
	if _, err := Generate(Options{Preset: bad, DurationSec: 10}); err == nil {
		t.Fatal("invalid preset accepted")
	}
	if _, err := Generate(Options{Preset: INF(), DurationSec: 10, FPS: -1}); err == nil {
		t.Fatal("negative FPS accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(Options{Preset: TWI(), DurationSec: 40, Seed: 7})
	b, _ := Generate(Options{Preset: TWI(), DurationSec: 40, Seed: 7})
	if len(a.Frames) != len(b.Frames) || len(a.Comments) != len(b.Comments) {
		t.Fatal("same seed produced different stream sizes")
	}
	for i := range a.Frames {
		for j := range a.Frames[i].Descriptor {
			if a.Frames[i].Descriptor[j] != b.Frames[i].Descriptor[j] {
				t.Fatal("same seed produced different descriptors")
			}
		}
	}
	c, _ := Generate(Options{Preset: TWI(), DurationSec: 40, Seed: 8})
	if len(a.Comments) == len(c.Comments) && len(a.Comments) > 0 {
		same := true
		for i := range a.Comments {
			if a.Comments[i].Text != c.Comments[i].Text {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical comments")
		}
	}
}

func TestAnomalyFree(t *testing.T) {
	s, err := Generate(Options{Preset: INF(), DurationSec: 300, AnomalyFree: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.AnomalyIntervals) != 0 {
		t.Fatalf("anomaly-free stream has %d intervals", len(s.AnomalyIntervals))
	}
	for _, f := range s.Frames {
		if f.Anomalous {
			t.Fatal("anomaly-free stream has anomalous frames")
		}
	}
}

func TestAnomalyInjection(t *testing.T) {
	s, err := Generate(Options{Preset: INF(), DurationSec: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.AnomalyIntervals) == 0 {
		t.Fatal("10-minute INF stream has no anomalies")
	}
	anomalous := 0
	for _, f := range s.Frames {
		if f.Anomalous {
			anomalous++
		}
	}
	frac := float64(anomalous) / float64(len(s.Frames))
	if frac <= 0 || frac > 0.4 {
		t.Fatalf("anomalous frame fraction %v implausible", frac)
	}
	// Intervals must be disjoint and ordered.
	for i := 1; i < len(s.AnomalyIntervals); i++ {
		if s.AnomalyIntervals[i][0] < s.AnomalyIntervals[i-1][1] {
			t.Fatal("overlapping anomaly intervals")
		}
	}
}

func TestAnomalyBoostsExcitementAndComments(t *testing.T) {
	s, err := Generate(Options{Preset: INF(), DurationSec: 900, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.AnomalyIntervals) == 0 {
		t.Skip("no anomalies with this seed")
	}
	inAnom := func(sec float64) bool {
		for _, iv := range s.AnomalyIntervals {
			// Audience reaction lags the anomaly: look one step after start.
			if sec >= iv[0]+1 && sec < iv[1]+3 {
				return true
			}
		}
		return false
	}
	var eAnom, eNorm float64
	var nAnom, nNorm int
	for t2, e := range s.Excitement {
		if inAnom(float64(t2)) {
			eAnom += e
			nAnom++
		} else {
			eNorm += e
			nNorm++
		}
	}
	if nAnom == 0 || nNorm == 0 {
		t.Skip("degenerate split")
	}
	if eAnom/float64(nAnom) <= eNorm/float64(nNorm) {
		t.Fatalf("anomaly excitement %.3f not above normal %.3f",
			eAnom/float64(nAnom), eNorm/float64(nNorm))
	}
}

func TestAnomalyVisuallySubtle(t *testing.T) {
	// The defining property: anomalous frames remain visually close to the
	// concurrent normal state (cosine > 0.5 to the normal direction).
	p := INF()
	s, err := Generate(Options{Preset: p, DurationSec: 600, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range s.Frames {
		if !f.Anomalous {
			continue
		}
		// Compare against every normal state's direction; the max cosine
		// should still be substantial because the blend keeps most of the
		// normal appearance.
		best := -1.0
		for st := 0; st < p.States; st++ {
			c := mat.VecCosine(f.Descriptor, stateDescriptor(st, p.DescriptorDim))
			if c > best {
				best = c
			}
		}
		if best < 0.3 {
			t.Fatalf("anomalous frame too visually distinct (max cosine %v)", best)
		}
		checked++
		if checked > 200 {
			break
		}
	}
	if checked == 0 {
		t.Skip("no anomalous frames with this seed")
	}
}

func TestSegmentsLabelling(t *testing.T) {
	s, err := Generate(Options{Preset: INF(), DurationSec: 600, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	segs, err := s.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	var labelled int
	for _, sg := range segs {
		if sg.Label {
			labelled++
		}
	}
	if len(s.AnomalyIntervals) > 0 && labelled == 0 {
		t.Fatal("anomalies injected but no segment labelled")
	}
	// Labelled fraction should roughly match the anomalous time fraction.
	var anomSec float64
	for _, iv := range s.AnomalyIntervals {
		anomSec += iv[1] - iv[0]
	}
	wantFrac := anomSec / float64(s.DurationSec)
	gotFrac := float64(labelled) / float64(len(segs))
	if math.Abs(gotFrac-wantFrac) > 0.1 {
		t.Fatalf("label fraction %.3f far from anomaly time fraction %.3f", gotFrac, wantFrac)
	}
	// Comments attached.
	withComments := 0
	for _, sg := range segs {
		if len(sg.Comments) > 0 {
			withComments++
		}
	}
	if withComments < len(segs)/2 {
		t.Fatalf("only %d/%d segments carry comments", withComments, len(segs))
	}
}

func TestFeedbackChangesDynamics(t *testing.T) {
	// With feedback on, high excitement shortens dwell times, so the
	// presenter changes state more often than the no-feedback variant under
	// identical randomness.
	base := INF()
	noFb := base
	noFb.Feedback = false
	a, _ := Generate(Options{Preset: base, DurationSec: 900, AnomalyFree: true, Seed: 9})
	b, _ := Generate(Options{Preset: noFb, DurationSec: 900, AnomalyFree: true, Seed: 9})
	changes := func(s *Stream) int {
		n := 0
		for i := s.FPS; i < len(s.Frames); i += s.FPS {
			if s.Frames[i].State != s.Frames[i-s.FPS].State {
				n++
			}
		}
		return n
	}
	ca, cb := changes(a), changes(b)
	if ca <= cb {
		t.Fatalf("feedback should accelerate state changes: with=%d without=%d", ca, cb)
	}
}

func BenchmarkGenerate10Min(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Options{Preset: INF(), DurationSec: 600, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// streamHash digests everything Generate returns, float bits included.
func streamHash(s *Stream) string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(s.DurationSec))
	word(uint64(s.FPS))
	for _, f := range s.Frames {
		word(uint64(f.Index))
		word(uint64(f.State))
		if f.Anomalous {
			word(1)
		}
		for _, v := range f.Descriptor {
			word(math.Float64bits(v))
		}
	}
	for _, c := range s.Comments {
		word(math.Float64bits(c.AtSec))
		h.Write([]byte(c.Text))
		word(0)
	}
	for _, e := range s.Excitement {
		word(math.Float64bits(e))
	}
	for _, iv := range s.AnomalyIntervals {
		word(math.Float64bits(iv[0]))
		word(math.Float64bits(iv[1]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateOutputPinned holds every preset's stream — frames, comments,
// excitement and anomaly schedule — to the bytes the generator produced
// when each second re-derived its state's salience and direction from a
// freshly seeded source; Generate now derives them once per state.
func TestGenerateOutputPinned(t *testing.T) {
	want := map[string]string{
		"INF":           "5d0c6b621e6f8e4bdbd12bdc627606fc1d6c1ef0fb17fb115886814cce3d008a",
		"INF+anomalies": "8382313f4bee5367c15dbf1de0c1317276ac52f7e811d762f9212b90e83f09a8",
		"SPE":           "0d8a21af96994a65ae9169fef4eceb9e48c32249da07dbadb426e6b14aa92976",
		"SPE+anomalies": "1a35f6c68f9c4f6c9f8e33501036c29908a875f2cad9ce3d3e8dd281b5c3c453",
		"TED":           "0214d225bbeda2f794884131d16e77995f1c8a07c8bc54c16d5a4ded2aaa8888",
		"TED+anomalies": "81b83e2f982e6004349399f30ed09faaf9dba50325555aea743064d8b0e70f65",
		"TWI":           "8d4e61b95d13cc55a5ca1da3c9c0fd92ab55416ab7b68ec4b1c9b2d1b5f72141",
		"TWI+anomalies": "e4a0c184719298117f8320bf5d6f7eeeb28f58aef36c5f8e3f905b62d9f70442",
	}
	for _, p := range Presets() {
		for _, anomalyFree := range []bool{true, false} {
			s, err := Generate(Options{Preset: p, DurationSec: 240, AnomalyFree: anomalyFree, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			key := p.Name
			if !anomalyFree {
				key += "+anomalies"
			}
			if got := streamHash(s); got != want[key] {
				t.Errorf("%s: stream hash %s, want %s", key, got, want[key])
			}
		}
	}
}
