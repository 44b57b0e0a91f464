package core

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the prediction and training paths at the served
// shape (ActionDim 48, AudienceDim 19, hidden 32/16, q = 9 — the root
// benchmark's and cmd/aovlis-bench's fixture), so the tape-vs-engine split
// can be measured without the Detector around it.

func inferBenchModel(b *testing.B) (*Model, []Sample) {
	b.Helper()
	actions, audience := goldenSeries(40, 48, 19, 77)
	cfg := DefaultConfig(48, 19)
	cfg.HiddenI, cfg.HiddenA = 32, 16
	cfg.SeqLen = 9
	m, err := NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	samples, err := BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.TrainEpoch(samples, rand.New(rand.NewSource(3))); err != nil {
		b.Fatal(err)
	}
	return m, samples
}

// BenchmarkPredictIntoFused measures the InferPlan path.
func BenchmarkPredictIntoFused(b *testing.B) {
	m, samples := inferBenchModel(b)
	fhat := make([]float64, m.cfg.ActionDim)
	ahat := make([]float64, m.cfg.AudienceDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.PredictInto(&samples[i%len(samples)], fhat, ahat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch8Fused measures the InferPlan path the Detector
// runs: eight lanes per call, reported per lane.
func BenchmarkPredictBatch8Fused(b *testing.B) {
	const lanes = 8
	m, samples := inferBenchModel(b)
	fhats, ahats := make([][]float64, lanes), make([][]float64, lanes)
	for l := range fhats {
		fhats[l], ahats[l] = make([]float64, m.cfg.ActionDim), make([]float64, m.cfg.AudienceDim)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := (i * lanes) % (len(samples) - lanes)
		if err := m.PredictBatchInto(samples[at:at+lanes], fhats, ahats); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/lanes, "ns/lane")
}

// BenchmarkPredictIntoTape measures the autodiff-tape forward path the
// fused engine replaced.
func BenchmarkPredictIntoTape(b *testing.B) {
	m, samples := inferBenchModel(b)
	fhat := make([]float64, m.cfg.ActionDim)
	ahat := make([]float64, m.cfg.AudienceDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.predictTapeInto(&samples[i%len(samples)], fhat, ahat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainStepFused measures one optimisation step on the TrainPlan:
// tape-free recurrence and BPTT, SIMD weight-gradient and Adam kernels.
func BenchmarkTrainStepFused(b *testing.B) {
	m, samples := inferBenchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.TrainStep(&samples[i%len(samples)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainStepTape measures the whole-step autodiff-tape training
// path the TrainPlan replaced (same optimiser kernel, so the difference is
// forward + backward only).
func BenchmarkTrainStepTape(b *testing.B) {
	m, samples := inferBenchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.trainStepTape(&samples[i%len(samples)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHiddenInto measures the drift detector's per-segment call: the
// TrainPlan's forward recurrence alone.
func BenchmarkHiddenInto(b *testing.B) {
	m, samples := inferBenchModel(b)
	h := make([]float64, m.cfg.HiddenI)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.HiddenInto(&samples[i%len(samples)], h); err != nil {
			b.Fatal(err)
		}
	}
}
