package aovlis

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§VI), each regenerating the corresponding artifact end to end
// at the reduced QuickScale (dataset generation → feature extraction →
// training → measurement). Run the full battery with
//
//	go test -bench=. -benchmem
//
// and the experiment binaries with cmd/experiments for the larger
// DefaultScale outputs discussed in DESIGN.md §5. Micro-benchmarks for the
// public-API hot path (Detector.Observe) sit at the bottom; per-substrate
// micro-benchmarks live in their own packages (internal/...). The
// multi-channel pool throughput benchmark (segments/sec vs shard count)
// lives in pool_bench_test.go — the external test package, because
// internal/serve imports this package.

import (
	"testing"

	"aovlis/internal/ados"
	"aovlis/internal/core"
	"aovlis/internal/dataset"
	"aovlis/internal/experiments"
	"aovlis/internal/feature"
	"aovlis/internal/synth"
)

// runExperiment regenerates the experiment registered under id once per
// benchmark iteration with a fresh runner (no caches), so the reported time
// is the full cost of regenerating the artifact.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	var exp experiments.Experiment
	for _, e := range experiments.All() {
		if e.ID == id {
			exp = e
		}
	}
	if exp.ID == "" {
		b.Fatalf("no experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := exp.Run(experiments.NewRunner(experiments.QuickScale()))
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Render()) == 0 {
			b.Fatal("experiment produced no artifact")
		}
	}
}

// --- one benchmark per paper artifact ---

// BenchmarkTable1LossFunctions regenerates Table I (AUROC by loss).
func BenchmarkTable1LossFunctions(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2MFC regenerates Table II (MFC vs n).
func BenchmarkTable2MFC(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3DynamicUpdate regenerates Table III (incremental vs
// retraining AUROC).
func BenchmarkTable3DynamicUpdate(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4CaseStudy regenerates Table IV (15-segment case study).
func BenchmarkTable4CaseStudy(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig8EpochCurves regenerates Fig. 8 (Re vs epoch).
func BenchmarkFig8EpochCurves(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9aOmegaSweep regenerates Fig. 9(a) (AUROC vs ω).
func BenchmarkFig9aOmegaSweep(b *testing.B) { runExperiment(b, "fig9a") }

// BenchmarkFig9bAUROCComparison regenerates Fig. 9(b) (methods × datasets).
func BenchmarkFig9bAUROCComparison(b *testing.B) { runExperiment(b, "fig9b") }

// BenchmarkFig10ROCCurves regenerates Fig. 10 (ROC curves).
func BenchmarkFig10ROCCurves(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11aFilteringPower regenerates Fig. 11(a) (bound filtering
// power).
func BenchmarkFig11aFilteringPower(b *testing.B) { runExperiment(b, "fig11a") }

// BenchmarkFig11bOptimisationStrategies regenerates Fig. 11(b) (strategy
// timing).
func BenchmarkFig11bOptimisationStrategies(b *testing.B) { runExperiment(b, "fig11b") }

// BenchmarkFig11cEfficiencyComparison regenerates Fig. 11(c) (method
// timing).
func BenchmarkFig11cEfficiencyComparison(b *testing.B) { runExperiment(b, "fig11c") }

// BenchmarkFig12aT1Sweep regenerates Fig. 12(a) (effect of T1).
func BenchmarkFig12aT1Sweep(b *testing.B) { runExperiment(b, "fig12a") }

// BenchmarkFig12bT2Sweep regenerates Fig. 12(b) (effect of T2).
func BenchmarkFig12bT2Sweep(b *testing.B) { runExperiment(b, "fig12b") }

// BenchmarkFig12cNsgSweep regenerates Fig. 12(c) (effect of Nsg).
func BenchmarkFig12cNsgSweep(b *testing.B) { runExperiment(b, "fig12c") }

// BenchmarkUpdateVsRetrain regenerates the §VI-C6 wall-clock comparison.
func BenchmarkUpdateVsRetrain(b *testing.B) { runExperiment(b, "updatecost") }

// --- ablation benches (DESIGN.md §5) ---

// BenchmarkAblationCoupling compares coupling variants.
func BenchmarkAblationCoupling(b *testing.B) { runExperiment(b, "ablation-coupling") }

// BenchmarkAblationMerge compares dynamic-update merge strategies.
func BenchmarkAblationMerge(b *testing.B) { runExperiment(b, "ablation-merge") }

// BenchmarkAblationADGGroups sweeps the ADG partition size.
func BenchmarkAblationADGGroups(b *testing.B) { runExperiment(b, "ablation-adg") }

// --- public-API hot path ---

func benchmarkDetector(b *testing.B, mutate ...func(*Config)) {
	dcfg := dataset.DefaultConfig(synth.INF())
	dcfg.TrainSec, dcfg.TestSec = 240, 240
	dcfg.Classes = 48
	dcfg.SeqLen = 9
	ds, err := dataset.Build(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(48, dcfg.Audience.Dim())
	cfg.Epochs = 4
	for _, m := range mutate {
		m(&cfg)
	}
	det, err := Train(ds.TrainActions, ds.TrainAudience, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if cfg.Tiered {
		// Widen τ above the 4-epoch model's reconstruction error so the
		// proxy bound can clear segments (same calibration as the tiered
		// soak fixture; see BenchmarkDetectorObserveTiered).
		det.SetTau(5 * det.Tau())
	}
	// Warm the window.
	for i := 0; i < cfg.SeqLen; i++ {
		if _, err := det.Observe(ds.TestActions[i], ds.TestAudience[i]); err != nil {
			b.Fatal(err)
		}
	}
	n := len(ds.TestActions)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := cfg.SeqLen + i%(n-cfg.SeqLen)
		if _, err := det.Observe(ds.TestActions[idx], ds.TestAudience[idx]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if ts := det.TierStats(); ts.Gated > 0 {
		b.ReportMetric(float64(ts.Skipped)/float64(ts.Gated), "tierskip/op")
	}
}

// BenchmarkDetectorObserve measures the per-segment detection cost of the
// served default: predict, then the exact REIA against τ.
func BenchmarkDetectorObserve(b *testing.B) { benchmarkDetector(b) }

// BenchmarkDetectorObserveTiered is BenchmarkDetectorObserve with the
// bound-gated tier skip, so segments the anchor bound clears never run the
// LSTM at all. The gate here is the
// lax calibration (wide drift bound, full margin) with a widened τ — the
// 4-epoch bench model reconstructs too loosely for the proxy bound to
// clear the strict 0.95-quantile threshold, exactly like the tiered soak
// fixture. The tierskip/op metric reports the realised skip fraction;
// the flip-rate cost of skipping is pinned by TestTieredVerdictFlipRate.
func BenchmarkDetectorObserveTiered(b *testing.B) {
	benchmarkDetector(b, func(cfg *Config) {
		cfg.Tiered = true
		cfg.Tier = ados.TierConfig{DriftMax: 0.6, Margin: 1, MaxRun: 8}
		cfg.TauQuantile = 1
	})
}

// BenchmarkObserveUpdateBuffered measures what the updater adds to Observe
// when it buffers every segment, the most it can add short of a retrain:
// "update" is a served-shape clone with EnableUpdate on whose drift checks
// never retrain (τ_u = −1), "exact" the same clone with the updater off.
// The segments' interaction level falls by 10⁻⁶ a segment, so each one sits
// below the previous window's mean T and is buffered. With the score's
// hidden state handed to the drift check and the windows logged once, a
// buffered segment costs a few hundred nanoseconds over plain Observe; the
// second recurrence it ran before doubled Observe.
func BenchmarkObserveUpdateBuffered(b *testing.B) {
	dcfg := dataset.DefaultConfig(synth.INF())
	dcfg.TrainSec, dcfg.TestSec = 240, 240
	dcfg.Classes = 48
	dcfg.SeqLen = 9
	ds, err := dataset.Build(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(48, dcfg.Audience.Dim())
	cfg.Epochs = 4
	cfg.EnableUpdate = true
	cfg.Update.DriftThreshold = -1
	tmpl, err := Train(ds.TrainActions, ds.TrainAudience, cfg)
	if err != nil {
		b.Fatal(err)
	}
	aud := make([]float64, cfg.AudienceDim)
	for _, mode := range []string{"exact", "update"} {
		det, err := tmpl.Clone()
		if err != nil {
			b.Fatal(err)
		}
		if mode == "exact" {
			det.upd = nil
		}
		seg := 0
		observe := func() {
			k := seg % len(ds.TestActions)
			copy(aud, ds.TestAudience[k])
			for j := range aud[:len(aud)/2] {
				aud[j] = 0.5 - 1e-6*float64(seg)
			}
			seg++
			if _, err := det.Observe(ds.TestActions[k], aud); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < cfg.SeqLen; i++ { // warm the window
			observe()
		}
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				observe()
			}
			if det.upd != nil {
				if det.upd.Updates() != 0 {
					b.Fatal("a drift check retrained")
				}
				b.ReportMetric(float64(det.upd.Checks()*cfg.Update.MaxBuffer)/float64(seg-cfg.SeqLen), "buffered-share")
			}
		})
	}
}

// BenchmarkObserveAllocs measures the steady-state per-segment allocation
// profile of Detector.Observe on a small fixture (read the allocs/op and
// B/op columns; TestObserveSteadyStateAllocs pins them at zero). Compare
// runs with benchstat as described in BENCH.md.
func BenchmarkObserveAllocs(b *testing.B) {
	det, actions, audience := allocFixtureDetector(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := 8 + i%(len(actions)-8)
		if _, err := det.Observe(actions[idx], audience[idx]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveBatchAllocs measures the steady-state allocation profile
// of the micro-batched detection path at a fixed batch size
// (TestObserveBatchSteadyStateAllocs pins it at zero). The ns/op divided
// by the batch size is the amortised per-segment cost.
func BenchmarkObserveBatchAllocs(b *testing.B) {
	det, actions, audience := allocFixtureDetector(b)
	const batch = 8
	results := make([]Result, batch)
	idx := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx+batch > len(actions) {
			idx = 0
		}
		if _, err := det.ObserveBatch(actions[idx:idx+batch], audience[idx:idx+batch], results); err != nil {
			b.Fatal(err)
		}
		idx += batch
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/segment")
}

// BenchmarkTrainStepAllocs measures the steady-state per-step allocation
// profile of CLSTM training (TestTrainStepSteadyStateAllocs pins it at
// zero).
func BenchmarkTrainStepAllocs(b *testing.B) {
	actions, audience := allocFixtureSeries(30)
	mcfg := core.DefaultConfig(16, 6)
	mcfg.HiddenI, mcfg.HiddenA = 12, 8
	mcfg.SeqLen = 4
	model, err := core.NewModel(mcfg)
	if err != nil {
		b.Fatal(err)
	}
	samples, err := core.BuildSamples(actions, audience, mcfg.SeqLen)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm tape pool, arena, Adam moments
		if _, err := model.TrainStep(&samples[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.TrainStep(&samples[i%len(samples)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainDetector measures full detector training at quick scale.
func BenchmarkTrainDetector(b *testing.B) {
	dcfg := dataset.DefaultConfig(synth.INF())
	dcfg.TrainSec, dcfg.TestSec = 200, 200
	dcfg.Classes = 24
	dcfg.SeqLen = 5
	ds, err := dataset.Build(dcfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(24, dcfg.Audience.Dim())
	cfg.SeqLen = 5
	cfg.HiddenI, cfg.HiddenA = 16, 8
	cfg.Epochs = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(ds.TrainActions, ds.TrainAudience, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyntheticStreamGeneration measures raw stream generation
// (frames + comments) for ten minutes of INF content.
func BenchmarkSyntheticStreamGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(synth.Options{Preset: synth.INF(), DurationSec: 600, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtraction measures the full feature pipeline (I3D-style
// action features + Φ_D audience features) over a five-minute stream.
func BenchmarkFeatureExtraction(b *testing.B) {
	st, err := synth.Generate(synth.Options{Preset: synth.INF(), DurationSec: 300, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	segs, err := st.Segments()
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := feature.NewPipeline(48, synth.INF().DescriptorDim, feature.DefaultAudienceConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pipe.Extract(segs, st.Comments, 300); err != nil {
			b.Fatal(err)
		}
	}
}
