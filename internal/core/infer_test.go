package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"aovlis/internal/mat"
)

// Golden equivalence suite for the tape-free inference engine: the fused
// InferPlan forward pass must be bit-identical to the autodiff tape
// forward pass — on a freshly trained model, and after every kind of
// online parameter mutation (optimiser steps, merge-average, copy-replace),
// which the plan reads in place. The comparison fingerprints the float bits of both
// prediction streams, so any silent divergence fails loudly.

// goldenSeries builds a deterministic feature series shaped like the
// detector's real inputs: simplex action features, dense audience features.
func goldenSeries(n, actionDim, audienceDim int, seed int64) (actions, audience [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		f := make([]float64, actionDim)
		f[(i/2)%actionDim] = 1
		for j := range f {
			f[j] += 0.05 + 0.02*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, audienceDim)
		for j := range a {
			a[j] = 0.4 + 0.05*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}
	return actions, audience
}

// bitsFingerprint folds the exact bit patterns of vectors into one hash.
func bitsFingerprint(h interface{ Write([]byte) (int, error) }, vecs ...[]float64) {
	var buf [8]byte
	for _, v := range vecs {
		for _, x := range v {
			bits := math.Float64bits(x)
			for i := 0; i < 8; i++ {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
}

// comparePredictions runs every sample through both paths, requires
// elementwise bit equality, and returns the shared fingerprint.
func comparePredictions(t *testing.T, m *Model, samples []Sample, phase string) uint64 {
	t.Helper()
	fhatT := make([]float64, m.cfg.ActionDim)
	ahatT := make([]float64, m.cfg.AudienceDim)
	fhatF := make([]float64, m.cfg.ActionDim)
	ahatF := make([]float64, m.cfg.AudienceDim)
	hTape, hFused := fnv.New64a(), fnv.New64a()
	for i := range samples {
		s := &samples[i]
		if err := m.predictTapeInto(s, fhatT, ahatT); err != nil {
			t.Fatalf("%s: tape predict sample %d: %v", phase, i, err)
		}
		if err := m.PredictInto(s, fhatF, ahatF); err != nil {
			t.Fatalf("%s: fused predict sample %d: %v", phase, i, err)
		}
		for j := range fhatT {
			if math.Float64bits(fhatT[j]) != math.Float64bits(fhatF[j]) {
				t.Fatalf("%s: sample %d fhat[%d]: tape %x, fused %x",
					phase, i, j, math.Float64bits(fhatT[j]), math.Float64bits(fhatF[j]))
			}
		}
		for j := range ahatT {
			if math.Float64bits(ahatT[j]) != math.Float64bits(ahatF[j]) {
				t.Fatalf("%s: sample %d ahat[%d]: tape %x, fused %x",
					phase, i, j, math.Float64bits(ahatT[j]), math.Float64bits(ahatF[j]))
			}
		}
		bitsFingerprint(hTape, fhatT, ahatT)
		bitsFingerprint(hFused, fhatF, ahatF)
	}
	if hTape.Sum64() != hFused.Sum64() {
		t.Fatalf("%s: fingerprints diverge: tape %x, fused %x", phase, hTape.Sum64(), hFused.Sum64())
	}
	return hTape.Sum64()
}

// TestInferPlanGoldenEquivalence is the golden test: fused inference is
// bit-identical to the tape forward pass across every coupling mode, both
// after initial training and after each online-update mutation path
// (Adam steps, merge-average, copy-replace) has written the weights.
func TestInferPlanGoldenEquivalence(t *testing.T) {
	actions, audience := goldenSeries(60, 12, 5, 41)
	for _, coupling := range []Coupling{CouplingFull, CouplingOneWay, CouplingNone} {
		t.Run(coupling.String(), func(t *testing.T) {
			cfg := DefaultConfig(12, 5)
			cfg.HiddenI, cfg.HiddenA = 10, 6
			cfg.SeqLen = 5
			cfg.Coupling = coupling
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			samples, err := BuildSamples(actions, audience, cfg.SeqLen)
			if err != nil {
				t.Fatal(err)
			}

			// Phase 1: initial training, then full-dataset equivalence.
			rng := rand.New(rand.NewSource(1))
			for e := 0; e < 2; e++ {
				if _, err := m.TrainEpoch(samples, rng); err != nil {
					t.Fatal(err)
				}
			}
			fp1 := comparePredictions(t, m, samples, "after-training")

			// Phase 2: online optimiser updates interleaved with
			// predictions — every TrainStep writes the weights, every
			// PredictInto must serve the written ones.
			fhat := make([]float64, cfg.ActionDim)
			ahat := make([]float64, cfg.AudienceDim)
			for i := 0; i < 10; i++ {
				if _, err := m.TrainStep(&samples[i%len(samples)]); err != nil {
					t.Fatal(err)
				}
				if err := m.PredictInto(&samples[i%len(samples)], fhat, ahat); err != nil {
					t.Fatal(err)
				}
			}
			fp2 := comparePredictions(t, m, samples, "after-online-steps")
			if fp2 == fp1 {
				t.Fatal("online steps did not change predictions; update path not exercised")
			}

			// Phase 3: merge-average (the dynamic updater's MergeAverage).
			other := m.Clone()
			if _, err := other.TrainEpoch(samples, rng); err != nil {
				t.Fatal(err)
			}
			if err := m.Merge(other, 0.5); err != nil {
				t.Fatal(err)
			}
			fp3 := comparePredictions(t, m, samples, "after-merge")
			if fp3 == fp2 {
				t.Fatal("merge did not change predictions; merge path not exercised")
			}

			// Phase 4: copy-replace (the updater's MergeReplace).
			if err := m.Params().CopyFrom(other.Params()); err != nil {
				t.Fatal(err)
			}
			comparePredictions(t, m, samples, "after-replace")
		})
	}
}

// TestPredictMatchesPredictInto keeps the copying and in-place public
// APIs coherent now that both route through the plan.
func TestPredictMatchesPredictInto(t *testing.T) {
	actions, audience := goldenSeries(40, 10, 4, 43)
	cfg := DefaultConfig(10, 4)
	cfg.HiddenI, cfg.HiddenA = 8, 5
	cfg.SeqLen = 4
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainEpoch(samples, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	fhat := make([]float64, cfg.ActionDim)
	ahat := make([]float64, cfg.AudienceDim)
	for i := range samples {
		pf, pa, err := m.Predict(&samples[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := m.PredictInto(&samples[i], fhat, ahat); err != nil {
			t.Fatal(err)
		}
		for j := range pf {
			if math.Float64bits(pf[j]) != math.Float64bits(fhat[j]) {
				t.Fatalf("sample %d: Predict and PredictInto disagree", i)
			}
		}
		for j := range pa {
			if math.Float64bits(pa[j]) != math.Float64bits(ahat[j]) {
				t.Fatalf("sample %d: Predict and PredictInto disagree", i)
			}
		}
	}
}

// TestCloneSharesPlanUntilWritten pins the copy-on-write contract at the
// engine: a clone predicts the source's bits off the source's parameter
// arrays, its gate mode is its own, its first write leaves its plan reading
// arrays of its own and the source's alone, and from then on a write and a
// prediction allocate nothing.
func TestCloneSharesPlanUntilWritten(t *testing.T) {
	actions, audience := goldenSeries(40, 10, 4, 47)
	cfg := DefaultConfig(10, 4)
	cfg.HiddenI, cfg.HiddenA = 8, 5
	cfg.SeqLen = 4
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainEpoch(samples, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	want := comparePredictions(t, m, samples, "source")
	read := func(m *Model) *float64 { return &m.plan.streams[0].cell.W[0].Data[0] }

	c := m.Clone()
	if read(c) != read(m) || &c.ps.Get("decI.W").Data[0] != &m.ps.Get("decI.W").Data[0] {
		t.Fatal("a clone carries its own weights")
	}
	if got := comparePredictions(t, c, samples, "clone"); got != want {
		t.Fatalf("clone predicts %x off the shared arrays, source %x", got, want)
	}

	if _, err := c.TrainStep(&samples[0]); err != nil {
		t.Fatal(err)
	}
	if got := comparePredictions(t, c, samples, "trained clone"); got == want {
		t.Fatal("training the clone changed nothing")
	}
	if read(c) == read(m) || read(c) != &c.ps.Get("lstmI.Wi").Data[0] {
		t.Fatal("the written clone's plan does not read the clone's own arrays")
	}
	if got := comparePredictions(t, m, samples, "source after the clone's write"); got != want {
		t.Fatalf("the clone's write moved the source's predictions: %x, want %x", got, want)
	}
	fhat, ahat := make([]float64, cfg.ActionDim), make([]float64, cfg.AudienceDim)
	if avg := testing.AllocsPerRun(20, func() {
		c.ps.BumpVersion()
		if err := c.PredictInto(&samples[1], fhat, ahat); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("a detached model's write and prediction allocate %.1f times, want 0", avg)
	}

	// A clone taken right after the source's write, before it predicted
	// again, serves the written weights.
	if _, err := m.TrainStep(&samples[2]); err != nil {
		t.Fatal(err)
	}
	fresh := m.Clone()
	if got, want := comparePredictions(t, fresh, samples, "clone of a written source"), comparePredictions(t, m, samples, "written source"); got != want {
		t.Fatalf("clone of a written source predicts %x, its source %x", got, want)
	}
}
