package aovlis

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"aovlis/internal/core"
	"aovlis/internal/dataset"
	"aovlis/internal/evalx"
	"aovlis/internal/mat"
	"aovlis/internal/synth"
)

func testConfig() Config {
	cfg := DefaultConfig(16, 6)
	cfg.HiddenI, cfg.HiddenA = 12, 8
	cfg.SeqLen = 4
	cfg.Epochs = 8
	return cfg
}

// makeSeries builds a simple normal series with optional anomaly indices.
func makeSeries(rng *rand.Rand, n int, anomalies map[int]bool) (actions, audience [][]float64) {
	for t := 0; t < n; t++ {
		f := make([]float64, 16)
		if anomalies[t] {
			f[15-(t%2)] = 1
		} else {
			f[(t/4)%6] = 1
		}
		for i := range f {
			f[i] += 0.02 + 0.01*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, 6)
		base := 0.3
		if anomalies[t] {
			base = 0.95
		}
		for i := range a {
			a[i] = base + 0.03*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}
	return actions, audience
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testConfig()
	bad.Epochs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("Epochs=0 accepted")
	}
	bad = testConfig()
	bad.TauQuantile = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("TauQuantile=2 accepted")
	}
	bad = testConfig()
	bad.ActionDim = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("ActionDim=0 accepted")
	}
}

func TestTrainRejectsTinySeries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, u := makeSeries(rng, 5, nil)
	if _, err := Train(a, u, testConfig()); err == nil {
		t.Fatal("tiny series accepted")
	}
}

func TestObserveLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trainA, trainU := makeSeries(rng, 120, nil)
	det, err := Train(trainA, trainU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if det.Tau() <= 0 {
		t.Fatalf("calibrated τ = %v", det.Tau())
	}

	// Warm-up: first q observations make no decision.
	testA, testU := makeSeries(rng, 30, map[int]bool{20: true, 21: true})
	for i := 0; i < det.cfg.SeqLen; i++ {
		res, err := det.Observe(testA[i], testU[i])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Warmup {
			t.Fatalf("observation %d should be warm-up", i)
		}
	}
	// Post warm-up observations decide.
	var flagged int
	for i := det.cfg.SeqLen; i < len(testA); i++ {
		res, err := det.Observe(testA[i], testU[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Warmup {
			t.Fatalf("observation %d still warm-up", i)
		}
		if res.Anomaly {
			flagged++
		}
	}
	if det.Observed() != len(testA) {
		t.Fatalf("Observed = %d", det.Observed())
	}
	if det.Detected() != flagged {
		t.Fatalf("Detected = %d, flagged = %d", det.Detected(), flagged)
	}
}

func TestObserveDimValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trainA, trainU := makeSeries(rng, 100, nil)
	det, err := Train(trainA, trainU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Observe([]float64{1}, trainU[0]); err == nil {
		t.Fatal("wrong action dim accepted")
	}
	if _, err := det.Observe(trainA[0], []float64{1}); err == nil {
		t.Fatal("wrong audience dim accepted")
	}
}

// TestObserveConcurrentGuard exercises the single-writer enforcement:
// racing Observe calls must either succeed or fail with
// ErrConcurrentObserve, and the detector's counters must account exactly
// for the successes. Run under -race this also proves the losing caller
// touches no detector state.
func TestObserveConcurrentGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trainA, trainU := makeSeries(rng, 100, nil)
	det, err := Train(trainA, trainU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 4, 200
	var wg sync.WaitGroup
	var succeeded, conflicted atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, err := det.Observe(trainA[i%len(trainA)], trainU[i%len(trainU)])
				switch {
				case err == nil:
					succeeded.Add(1)
				case errors.Is(err, ErrConcurrentObserve):
					conflicted.Add(1)
				default:
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := succeeded.Load() + conflicted.Load(); got != goroutines*perG {
		t.Fatalf("accounted for %d of %d calls", got, goroutines*perG)
	}
	if det.Observed() != int(succeeded.Load()) {
		t.Fatalf("Observed = %d, successes = %d", det.Observed(), succeeded.Load())
	}
	// The guard releases: a sequential call afterwards works.
	if _, err := det.Observe(trainA[0], trainU[0]); err != nil {
		t.Fatalf("sequential Observe after contention: %v", err)
	}
}

// TestCloneIndependence: a cloned detector shares weights and threshold
// but none of the runtime state.
func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	trainA, trainU := makeSeries(rng, 100, nil)
	det, err := Train(trainA, trainU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := det.Observe(trainA[i], trainU[i]); err != nil {
			t.Fatal(err)
		}
	}
	clone, err := det.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if clone.Tau() != det.Tau() {
		t.Fatalf("clone tau %v, original %v", clone.Tau(), det.Tau())
	}
	if clone.Observed() != 0 {
		t.Fatalf("clone inherited %d observations", clone.Observed())
	}
	res, err := clone.Observe(trainA[0], trainU[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Warmup {
		t.Fatal("clone did not start with an empty window")
	}
	if det.Observed() != 10 {
		t.Fatalf("cloning disturbed the original (Observed = %d)", det.Observed())
	}
}

func TestDetectorFindsInjectedAnomalies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	trainA, trainU := makeSeries(rng, 160, nil)
	det, err := Train(trainA, trainU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	anoms := map[int]bool{}
	for _, i := range []int{40, 41, 42, 70, 71, 72} {
		anoms[i] = true
	}
	testA, testU := makeSeries(rng, 100, anoms)
	results, err := det.DetectSeries(testA, testU)
	if err != nil {
		t.Fatal(err)
	}
	var scores []float64
	var labels []bool
	for i, r := range results {
		if r.Warmup {
			continue
		}
		scores = append(scores, r.Score)
		labels = append(labels, anoms[i])
	}
	auroc, err := evalx.AUROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auroc < 0.85 {
		t.Fatalf("detector AUROC %.3f on an easy workload", auroc)
	}
	// The hard decisions should hit at least half the anomalies.
	var hits, total int
	for i, r := range results {
		if anoms[i] {
			total++
			if r.Anomaly {
				hits++
			}
		}
	}
	if hits*2 < total {
		t.Fatalf("detector flagged %d/%d anomalous segments", hits, total)
	}
}

// TestObserveScoreIsModelScore pins that a served verdict is the score τ
// was calibrated on: every decided Observe scores exactly what
// Model().Score says for the same window and segment, bit for bit, and
// flags the segment iff that score exceeds τ — also after SetTau moves τ.
func TestObserveScoreIsModelScore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trainA, trainU := makeSeries(rng, 140, nil)
	det, err := Train(trainA, trainU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := det.cfg.SeqLen
	testA, testU := makeSeries(rng, 80, map[int]bool{30: true, 31: true, 60: true})
	var flagged, cleared int
	for i := range testA {
		if i == 45 {
			det.SetTau(det.Tau() / 2)
		}
		res, err := det.Observe(testA[i], testU[i])
		if err != nil {
			t.Fatal(err)
		}
		if i < q {
			continue
		}
		want, err := det.Model().Score(&core.Sample{
			ActionSeq: testA[i-q : i], AudienceSeq: testU[i-q : i],
			ActionTarget: testA[i], AudienceTarget: testU[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Score) != math.Float64bits(want.REIA) || !res.Exact || res.Path != "exact" {
			t.Fatalf("segment %d: Observe %+v, Model().Score REIA %v", i, res, want.REIA)
		}
		if res.Anomaly != (want.REIA > det.Tau()) {
			t.Fatalf("segment %d: anomaly %v for REIA %v against τ %v", i, res.Anomaly, want.REIA, det.Tau())
		}
		if res.Anomaly {
			flagged++
		} else {
			cleared++
		}
	}
	if flagged == 0 || cleared == 0 {
		t.Fatalf("stream decided %d anomalous, %d normal; both verdicts must be exercised", flagged, cleared)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	trainA, trainU := makeSeries(rng, 120, nil)
	det, err := Train(trainA, trainU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	det2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if det2.Tau() != det.Tau() {
		t.Fatalf("τ changed across save/load: %v vs %v", det2.Tau(), det.Tau())
	}
	testA, testU := makeSeries(rng, 40, map[int]bool{20: true})
	r1, err := det.DetectSeries(testA, testU)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := det2.DetectSeries(testA, testU)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i].Anomaly != r2[i].Anomaly {
			t.Fatalf("segment %d decision changed across save/load", i)
		}
	}
}

func TestSetTau(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trainA, trainU := makeSeries(rng, 100, nil)
	det, err := Train(trainA, trainU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	det.SetTau(1e9)
	testA, testU := makeSeries(rng, 30, map[int]bool{20: true})
	res, err := det.DetectSeries(testA, testU)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Anomaly {
			t.Fatalf("segment %d flagged despite τ = 1e9", i)
		}
	}
}

func TestRecalibrate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trainA, trainU := makeSeries(rng, 120, nil)
	det, err := Train(trainA, trainU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	oldTau := det.Tau()
	freshA, freshU := makeSeries(rng, 80, nil)
	if err := det.Recalibrate(freshA, freshU, 0.99); err != nil {
		t.Fatal(err)
	}
	if det.Tau() == oldTau {
		t.Log("τ unchanged after recalibration (possible but unlikely)")
	}
	if det.Tau() <= 0 {
		t.Fatalf("recalibrated τ = %v", det.Tau())
	}
	// Too-short series must error.
	if err := det.Recalibrate(freshA[:2], freshU[:2], 0.9); err == nil {
		t.Fatal("recalibration on tiny series accepted")
	}
}

func TestDynamicUpdateEnabled(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	trainA, trainU := makeSeries(rng, 120, nil)
	cfg := testConfig()
	cfg.EnableUpdate = true
	cfg.Update.MaxBuffer = 15
	cfg.Update.TrainEpochs = 1
	cfg.Update.DriftThreshold = 0.9999 // force updates for the test
	det, err := Train(trainA, trainU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	testA, testU := makeSeries(rng, 60, nil)
	var updated bool
	for i := range testA {
		res, err := det.Observe(testA[i], testU[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Updated {
			updated = true
		}
	}
	if !updated {
		t.Fatal("dynamic update never triggered")
	}
}

// End-to-end smoke test over the full synthetic pipeline.
func TestEndToEndOnSyntheticDataset(t *testing.T) {
	dcfg := dataset.DefaultConfig(synth.INF())
	dcfg.TrainSec, dcfg.TestSec = 240, 240
	dcfg.Classes = 24
	dcfg.SeqLen = 5
	ds, err := dataset.Build(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(24, dcfg.Audience.Dim())
	cfg.SeqLen = 5
	cfg.HiddenI, cfg.HiddenA = 16, 8
	cfg.Epochs = 6
	det, err := Train(ds.TrainActions, ds.TrainAudience, cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := det.DetectSeries(ds.TestActions, ds.TestAudience)
	if err != nil {
		t.Fatal(err)
	}
	var scores []float64
	var labels []bool
	for i, r := range results {
		if r.Warmup {
			continue
		}
		scores = append(scores, r.Score)
		labels = append(labels, ds.TestLabels[i])
	}
	auroc, err := evalx.AUROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auroc < 0.6 {
		t.Fatalf("end-to-end AUROC %.3f; the pipeline is not detecting", auroc)
	}
}
