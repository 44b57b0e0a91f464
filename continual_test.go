package aovlis

// Cross-channel continual learning: a fleet of per-channel detectors
// shares one slowly-moving base, the node's template (internal/node, the
// -continual flag). Live channels are periodically absorbed into it
// through the dynamic updater's weighted parameter merge,
// template ← (1−w)·template + w·channel, and a channel attached mid-stream
// is a clone of it instead of the cold training checkpoint. The payoff is
// measured here twice: by stepsToStable (a warm-started channel reaches
// its first stable verdict run in a fraction of the cold channel's steps)
// and by AUROC on a drifted regime of a synthetic preset
// (TestWarmStartBeatsColdOnTheVeteransRegime).

import (
	"math/rand"
	"testing"

	"aovlis/internal/dataset"
	"aovlis/internal/evalx"
	"aovlis/internal/mat"
	"aovlis/internal/synth"
)

// stepsToStable is the cold-start metric: the number of verdicts a channel
// consumed up to and including the one that completes its first run of k
// consecutive stable (non-warmup, non-anomaly) results. Returns -1 if the
// stream never stabilised. Comparing a warm-started channel's count
// against a cold one's on the same stream quantifies what the shared base
// bought.
func stepsToStable(results []Result, k int) int {
	if k <= 0 {
		k = 1
	}
	run := 0
	for i := range results {
		if !results[i].Warmup && !results[i].Anomaly {
			run++
			if run == k {
				return i + 1
			}
		} else {
			run = 0
		}
	}
	return -1
}

// driftSeries is a drifted channel regime: half the action mass bleeds
// into classes 8..13 the template never saw, and the audience sits below
// the updater's adaptive interaction threshold so drifted segments are
// buffered and retraining can trigger. The shift is deliberately
// adaptable — far enough that a cold template flags it anomalous, close
// enough that a few retrain cycles cross back under τ.
func driftSeries(rng *rand.Rand, n int) (actions, audience [][]float64) {
	for t := 0; t < n; t++ {
		f := make([]float64, 16)
		f[(t/4)%6] = 1
		f[8+(t/4)%6] = 0.5
		for i := range f {
			f[i] += 0.02 + 0.01*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, 6)
		for i := range a {
			a[i] = 0.22 + 0.02*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}
	return actions, audience
}

func TestStepsToStable(t *testing.T) {
	w := Result{Warmup: true}
	a := Result{Anomaly: true}
	n := Result{}
	cases := []struct {
		res  []Result
		k    int
		want int
	}{
		{[]Result{n, n, n}, 2, 2},
		{[]Result{w, w, n, n}, 2, 4},
		{[]Result{n, a, n, n, n}, 3, 5},
		{[]Result{a, a, a}, 1, -1},
		{[]Result{n, a, n}, 2, -1},
		{[]Result{n}, 0, 1}, // k<=0 clamps to 1
		{nil, 2, -1},
	}
	for i, tc := range cases {
		if got := stepsToStable(tc.res, tc.k); got != tc.want {
			t.Errorf("case %d: stepsToStable = %d, want %d", i, got, tc.want)
		}
	}
}

// TestWarmStartHalvesColdStart is the acceptance bar for the continual
// base: on a channel regime the template never saw, a detector
// warm-started from a base that absorbed an adapted peer reaches its
// first stable verdict run in at most 50% of the cold detector's steps.
func TestWarmStartHalvesColdStart(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trainA, trainU := makeSeries(rng, 120, nil)
	cfg := testConfig()
	cfg.EnableUpdate = true
	cfg.Update.MaxBuffer = 12
	cfg.Update.TrainEpochs = 6
	cfg.Update.MergeWeight = 0.9
	cfg.Update.DriftThreshold = 0.9999 // drifted content must trigger retrain
	tmpl, err := Train(trainA, trainU, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The evaluation stream: one fixed drifted regime both contenders see.
	evalA, evalU := driftSeries(rand.New(rand.NewSource(22)), 120)
	const stableRun = 3

	observeAll := func(d *Detector) []Result {
		out := make([]Result, 0, len(evalA))
		for i := range evalA {
			r, err := d.Observe(evalA[i], evalU[i])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}

	// Cold: a fresh template clone must flag the regime anomalous until its
	// updater retrains on the buffered segments.
	cold, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	coldSteps := stepsToStable(observeAll(cold), stableRun)
	if coldSteps < 0 {
		t.Fatal("cold channel never stabilised; regime too hard for the updater")
	}

	// A veteran channel adapts to the same regime on its own traffic, then
	// the absorb loop folds it into the shared base.
	vet, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	vetA, vetU := driftSeries(rand.New(rand.NewSource(23)), 150)
	adapted := false
	for i := range vetA {
		r, err := vet.Observe(vetA[i], vetU[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Updated {
			adapted = true
		}
	}
	if !adapted {
		t.Fatal("veteran channel never retrained; absorb would carry nothing")
	}
	// The base is a clone of the template that absorbs the veteran three
	// times at weight 0.5; Merge(other, w) keeps w·self + (1−w)·other.
	base, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := base.Model().Merge(vet.Model(), 1-0.5); err != nil {
			t.Fatal(err)
		}
	}

	// Warm: a fresh clone of the base.
	warm, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	warmSteps := stepsToStable(observeAll(warm), stableRun)
	if warmSteps < 0 {
		t.Fatal("warm channel never stabilised")
	}

	t.Logf("cold-start steps to first stable verdict: cold=%d warm=%d (%.0f%%)",
		coldSteps, warmSteps, 100*float64(warmSteps)/float64(coldSteps))
	if 2*warmSteps > coldSteps {
		t.Fatalf("warm start too weak: warm=%d cold=%d (want warm ≤ 50%% of cold)", warmSteps, coldSteps)
	}
}

// continualRun is one measurement of the continual base at dataset scale.
// A template is trained with EnableUpdate on a preset's normal stream; a
// veteran clone of it observes 1 800 s of vetPreset with 4 extra presenter
// states (through the template's feature pipeline) and adapts with its own
// updater; the base
// is the template after absorbing the veteran four times at weight 0.25,
// as four -continual sweeps over a node holding that one channel would
// leave it. A clone of the base (warm) and a clone of the template (cold)
// then score two streams each, both contenders updating as a node's
// channels do: a fresh stream of that drifted vetPreset (the veteran's
// regime) and the preset's own test stream (the template's regime).
type continualRun struct {
	retrains           int
	warmVet, coldVet   float64 // AUROC (%) on the veteran's regime
	warmHome, coldHome float64 // AUROC (%) on the template's regime
}

func measureContinual(tb testing.TB, preset, vetPreset synth.Preset, seed int64) continualRun {
	tb.Helper()
	dcfg := dataset.DefaultConfig(preset)
	dcfg.Seed = seed
	ds, err := dataset.Build(dcfg)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig(dcfg.Classes, dcfg.Audience.Dim())
	cfg.EnableUpdate = true
	cfg.Seed = seed
	tmpl, err := Train(ds.TrainActions, ds.TrainAudience, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	stream := func(p synth.Preset, sec int, seed int64) (acts, auds [][]float64, labels []bool) {
		gen, err := synth.Generate(synth.Options{Preset: p, DurationSec: sec, Seed: seed})
		if err != nil {
			tb.Fatal(err)
		}
		segs, err := gen.Segments()
		if err != nil {
			tb.Fatal(err)
		}
		if acts, auds, err = ds.Pipeline.Extract(segs, gen.Comments, sec); err != nil {
			tb.Fatal(err)
		}
		for i := range segs {
			labels = append(labels, segs[i].Label)
		}
		return acts, auds, labels
	}
	clone := func(d *Detector) *Detector {
		c, err := d.Clone()
		if err != nil {
			tb.Fatal(err)
		}
		return c
	}
	// auroc scores the stream on d and returns the AUROC (%) of its
	// decided segments.
	auroc := func(d *Detector, acts, auds [][]float64, labels []bool) float64 {
		var scores []float64
		var truth []bool
		for i := range acts {
			r, err := d.Observe(acts[i], auds[i])
			if err != nil {
				tb.Fatal(err)
			}
			if !r.Warmup {
				scores, truth = append(scores, r.Score), append(truth, labels[i])
			}
		}
		a, err := evalx.AUROC(scores, truth)
		if err != nil {
			tb.Fatal(err)
		}
		return 100 * a
	}

	var run continualRun
	vetPreset.States += 4 // presenter behaviour the template never saw
	vet := clone(tmpl)
	acts, auds, _ := stream(vetPreset, 1800, seed+7)
	for i := range acts {
		r, err := vet.Observe(acts[i], auds[i])
		if err != nil {
			tb.Fatal(err)
		}
		if r.Updated {
			run.retrains++
		}
	}
	base := clone(tmpl)
	for i := 0; i < 4; i++ {
		if err := base.Model().Merge(vet.Model(), 1-0.25); err != nil {
			tb.Fatal(err)
		}
	}
	acts, auds, labels := stream(vetPreset, dcfg.TestSec, seed+11)
	run.warmVet, run.coldVet = auroc(clone(base), acts, auds, labels), auroc(clone(tmpl), acts, auds, labels)
	run.warmHome = auroc(clone(base), ds.TestActions, ds.TestAudience, ds.TestLabels)
	run.coldHome = auroc(clone(tmpl), ds.TestActions, ds.TestAudience, ds.TestLabels)
	return run
}

// TestWarmStartBeatsColdOnTheVeteransRegime pins what the continual base
// buys at dataset scale: a channel seeded from a base that absorbed an
// adapted veteran ranks the veteran's drifted regime at least 5 AUROC
// points better than a cold clone of the template, on INF and TED at seeds
// 1 and 2. DESIGN.md §5 has the 4-preset × 3-seed table, the template's
// own regime beside it and the cross-preset cost (forgetting).
func TestWarmStartBeatsColdOnTheVeteransRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a dataset-scale template per case")
	}
	for _, preset := range []synth.Preset{synth.INF(), synth.TED()} {
		for _, seed := range []int64{1, 2} {
			run := measureContinual(t, preset, preset, seed)
			t.Logf("%s seed %d: %d veteran retrains; veteran's regime warm %.1f cold %.1f (%+.1f); template's regime warm %.1f cold %.1f (%+.1f)",
				preset.Name, seed, run.retrains, run.warmVet, run.coldVet, run.warmVet-run.coldVet,
				run.warmHome, run.coldHome, run.warmHome-run.coldHome)
			if run.retrains == 0 {
				t.Errorf("%s seed %d: the veteran never retrained; the base absorbed the template", preset.Name, seed)
			}
			if d := run.warmVet - run.coldVet; d < 5 {
				t.Errorf("%s seed %d: warm start gains %.1f AUROC points on the veteran's regime, want at least 5", preset.Name, seed, d)
			}
		}
	}
}
