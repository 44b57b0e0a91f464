package aovlis

// Cross-channel continual learning (ISSUE 10): a fleet of per-channel
// detectors shares one slowly-moving base parameter set
// (update.SharedBase, held by internal/node). Live channels are
// periodically absorbed into the base through the dynamic updater's
// weighted parameter merge, and a channel attached mid-stream warm-starts
// from the base instead of the cold training checkpoint. The payoff is
// measured here by stepsToStable: a warm-started channel reaches its first
// stable verdict run in a fraction of the cold channel's steps.

import (
	"math/rand"
	"testing"

	"aovlis/internal/mat"
	"aovlis/internal/update"
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

// TestWarmStartHalvesColdStart is ISSUE 10's acceptance bar for the
// shared base: on a channel regime the template never saw, a detector
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
	base := update.NewSharedBase(tmpl.Model())
	for i := 0; i < 3; i++ {
		if err := base.Absorb(vet.Model(), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if base.Absorbs() != 3 {
		t.Fatalf("Absorbs = %d, want 3", base.Absorbs())
	}

	// Warm: a fresh clone seeded from the base.
	warm, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Seed(warm.Model()); err != nil {
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
