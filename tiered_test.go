package aovlis

// Verdict-flip-rate regression harness (ISSUE 6): the tier skip gate is an
// approximation, and its correctness argument is empirical — on
// representative streams the verdicts it produces must agree with the
// exact pipeline within a checked-in flip budget. This file pins that
// budget. Each regression stream is scored by two clones of one trained
// detector (exact and tiered); any verdict disagreement after warm-up is a
// flip, and the test fails loudly with the offending segment indices when
// the flip rate exceeds the budget.
//
// Tier flips are additionally required to be one-sided: the skip gate only
// ever declares a segment normal, and because the CLSTM recomputes its
// state from the sliding window on every Observe (no carried hidden
// state), a skipped segment cannot perturb any later exact score. A tier
// flip is therefore always "exact said anomaly, tiered skipped it" at a
// skipped segment — the test asserts exactly that, so an accidental
// two-sided behaviour change fails structurally, not statistically.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"aovlis/internal/ados"
	"aovlis/internal/dataset"
	"aovlis/internal/mat"
	"aovlis/internal/synth"
)

// tieredFlipBudget is the checked-in flip budget, as a fraction of
// post-warmup verdicts. Tiering may delay anomaly verdicts by design; the
// budget is the accepted miss rate at the shipped TierConfig.
const tieredFlipBudget = 0.02

// flipStream is one regression stream: a trained detector template plus
// the live segments to score.
type flipStream struct {
	name  string
	det   *Detector
	testA [][]float64
	testU [][]float64
}

// presetFlipStream trains a small detector on one synthetic dataset family
// and returns its anomaly-bearing test stream.
func presetFlipStream(t *testing.T, preset synth.Preset) flipStream {
	t.Helper()
	dcfg := dataset.DefaultConfig(preset)
	dcfg.TrainSec, dcfg.TestSec = 150, 200
	dcfg.Classes = 16
	dcfg.SeqLen = 6
	ds, err := dataset.Build(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(16, dcfg.Audience.Dim())
	cfg.SeqLen = 6
	cfg.Epochs = 3
	// A slightly laxer τ than the shipped default: the small training
	// fixture must still flag the preset's anomaly bursts, or the stream
	// could not exercise verdict flips at all (asserted below).
	cfg.TauQuantile = 0.9
	det, err := Train(ds.TrainActions, ds.TrainAudience, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return flipStream{name: preset.Name, det: det, testA: ds.TestActions, testU: ds.TestAudience}
}

// driftFlipStream builds the synthetic drift stream: trained on a
// stationary normal phase, then scored on a slowly drifting continuation
// with anomaly bursts — the regime where a stale anchor is most dangerous
// for the tier gate.
func driftFlipStream(t *testing.T) flipStream {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	gen := func(n, start int, drift float64, anomalies map[int]bool) (actions, audience [][]float64) {
		for i := 0; i < n; i++ {
			tAbs := start + i
			f := make([]float64, 16)
			if anomalies[i] {
				f[15-(tAbs%2)] = 1
			} else {
				f[(tAbs/6)%5] = 1
			}
			for j := range f {
				f[j] += 0.03 + 0.01*rng.Float64() + drift*float64(i)/float64(n)*0.02*float64(j%3)
			}
			mat.Normalize(f)
			a := make([]float64, 6)
			base := 0.3 + drift*0.15*float64(i)/float64(n)
			if anomalies[i] {
				base = 0.95
			}
			for j := range a {
				a[j] = base + 0.02*rng.NormFloat64()
			}
			actions = append(actions, f)
			audience = append(audience, a)
		}
		return actions, audience
	}
	trainA, trainU := gen(160, 0, 0, nil)
	cfg := testConfig()
	cfg.SeqLen = 6
	det, err := Train(trainA, trainU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	anoms := map[int]bool{60: true, 61: true, 62: true, 130: true, 131: true, 170: true}
	testA, testU := gen(200, 160, 1, anoms)
	return flipStream{name: "synthetic-drift", det: det, testA: testA, testU: testU}
}

// scoreStream clones the template, tiered or exact, and returns the
// per-segment results.
func scoreStream(t *testing.T, s flipStream, tiered bool) ([]Result, *Detector) {
	t.Helper()
	det, err := s.det.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := det.SetScoringMode(false, tiered); err != nil {
		t.Fatal(err)
	}
	out, err := det.DetectSeries(s.testA, s.testU)
	if err != nil {
		t.Fatal(err)
	}
	return out, det
}

// countFlips compares a mode's verdicts against the exact baseline and
// returns the post-warmup flip indices.
func countFlips(exact, got []Result) (decided int, flips []int) {
	for i := range exact {
		if exact[i].Warmup {
			continue
		}
		decided++
		if exact[i].Anomaly != got[i].Anomaly {
			flips = append(flips, i)
		}
	}
	return decided, flips
}

// TestTieredVerdictFlipRate is the tolerance gate for the tier skip: on
// every regression stream, tiered verdicts must stay within the checked-in
// flip budget of the exact pipeline, tier flips must be one-sided anomaly
// misses at skipped segments, and the tier gate must actually skip work
// somewhere (a gate that never fires would pass any budget vacuously).
func TestTieredVerdictFlipRate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three detectors")
	}
	streams := []flipStream{
		presetFlipStream(t, synth.INF()),
		presetFlipStream(t, synth.SPE()),
		driftFlipStream(t),
	}
	totalSkipped := 0
	for _, s := range streams {
		exact, exactDet := scoreStream(t, s, false)
		if ts := exactDet.TierStats(); ts != (ados.TierStats{}) {
			t.Errorf("%s: untiered detector carries tier counters %+v", s.name, ts)
		}
		var anomalies int
		for _, r := range exact {
			if r.Anomaly {
				anomalies++
			}
		}
		if anomalies == 0 {
			t.Fatalf("%s: exact pipeline flagged no anomalies; the stream cannot exercise flips", s.name)
		}
		got, det := scoreStream(t, s, true)
		decided, flips := countFlips(exact, got)
		rate := float64(len(flips)) / float64(decided)
		ts := det.TierStats()
		t.Logf("%s: %d decided, %d flips (rate %.4f, budget %.4f), tier %+v",
			s.name, decided, len(flips), rate, tieredFlipBudget, ts)
		if rate > tieredFlipBudget {
			t.Errorf("%s: flip rate %.4f exceeds budget %.4f at segments %v",
				s.name, rate, tieredFlipBudget, flips)
		}
		totalSkipped += ts.Skipped
		for _, i := range flips {
			if got[i].Anomaly || !exact[i].Anomaly {
				t.Errorf("%s: segment %d flipped normal→anomaly — tier flips must be one-sided misses", s.name, i)
			}
			if got[i].Path != "tier-skip" {
				t.Errorf("%s: segment %d flipped on path %q, not at a tier skip", s.name, i, got[i].Path)
			}
		}
		if ts.Gated != decided {
			t.Errorf("%s: gate consulted %d times, %d segments decided", s.name, ts.Gated, decided)
		}
	}
	if totalSkipped == 0 {
		t.Error("tier gate never skipped a segment on any regression stream; the budget above is vacuous (recalibrate TierConfig or the streams)")
	}
	t.Logf("tier gate skipped %d segments across all streams", totalSkipped)
}

// TestScoringModeSnapshotRoundTrip pins replay determinism for the tiered
// detector: a snapshot taken mid-stream and restored must continue with
// bit-identical results, including the tier gate's anchor and counters.
func TestScoringModeSnapshotRoundTrip(t *testing.T) {
	s := driftFlipStream(t)
	det, err := s.det.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := det.SetScoringMode(false, true); err != nil {
		t.Fatal(err)
	}
	const cut = 90
	for i := 0; i < cut; i++ {
		if _, err := det.Observe(s.testA[i], s.testU[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreDetector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.TierStats(), det.TierStats(); got != want {
		t.Fatalf("restored tier stats %+v, want %+v", got, want)
	}
	for i := cut; i < len(s.testA); i++ {
		a, err := det.Observe(s.testA[i], s.testU[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Observe(s.testA[i], s.testU[i])
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("segment %d diverged after restore:\n  live     %+v\n  restored %+v", i, a, b)
		}
	}
	if got, want := restored.TierStats(), det.TierStats(); got != want {
		t.Fatalf("tier stats diverged after replay: %+v vs %+v", got, want)
	}
}
