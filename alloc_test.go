package aovlis

// Allocation-regression tests for the Observe/train hot path. The engines
// (core.InferPlan and core.TrainPlan, see ARCHITECTURE.md) keep their
// buffers between calls, which makes steady-state detection and training
// allocation-free; these tests pin that property with
// testing.AllocsPerRun so any regression fails deterministically — CI runs
// them in the bench-smoke job (see .github/workflows/ci.yml). The paired
// benchmarks (BenchmarkObserveAllocs, BenchmarkTrainStepAllocs in
// bench_test.go) report the same quantity for benchstat comparisons; see
// BENCH.md for the recorded baseline.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"aovlis/internal/core"
	"aovlis/internal/mat"
)

// allocFixtureSeries builds a small deterministic normal feature series.
func allocFixtureSeries(n int) (actions, audience [][]float64) {
	return allocSeries(n, 16, 6)
}

func allocSeries(n, actionDim, audienceDim int) (actions, audience [][]float64) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		f := make([]float64, actionDim)
		f[(i/3)%8] = 1
		for j := range f {
			f[j] += 0.02 + 0.01*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, audienceDim)
		for j := range a {
			a[j] = 0.3 + 0.03*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}
	return actions, audience
}

func allocFixtureDetector(tb testing.TB) (*Detector, [][]float64, [][]float64) {
	tb.Helper()
	actions, audience := allocFixtureSeries(90)
	cfg := DefaultConfig(16, 6)
	cfg.HiddenI, cfg.HiddenA = 12, 8
	cfg.SeqLen = 4
	cfg.Epochs = 3
	det, err := Train(actions, audience, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	// Warm past the q-segment window AND through one full scored pass so the
	// inference plan's lanes and the prediction buffers are sized.
	for i := 0; i < cfg.SeqLen+4; i++ {
		if _, err := det.Observe(actions[i], audience[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return det, actions, audience
}

// TestObserveSteadyStateAllocs pins the tentpole property: a steady-state
// Detector.Observe performs zero heap allocations per segment (1655 at the
// PR-2 baseline). The subtest names the exact scoring path, the only one
// the detector has.
func TestObserveSteadyStateAllocs(t *testing.T) {
	t.Run("Exact", func(t *testing.T) {
		det, actions, audience := allocFixtureDetector(t)
		i := 0
		n := testing.AllocsPerRun(200, func() {
			idx := 8 + i%(len(actions)-8)
			i++
			if _, err := det.Observe(actions[idx], audience[idx]); err != nil {
				t.Fatal(err)
			}
		})
		if n > 0 {
			t.Fatalf("steady-state Observe allocates %v times per segment, want 0", n)
		}
	})
}

// TestObserveUpdateSteadyStateAllocs pins the updater's share of Observe:
// a segment whose audience interaction is at or above the threshold T is
// not buffered, so with EnableUpdate on it must cost what it costs with the
// updater off — no hidden-state recurrence, no window-header copies (two
// per segment before the updater copied only what it keeps).
func TestObserveUpdateSteadyStateAllocs(t *testing.T) {
	actions, audience := allocFixtureSeries(90)
	cfg := DefaultConfig(16, 6)
	cfg.HiddenI, cfg.HiddenA = 12, 8
	cfg.SeqLen = 4
	cfg.Epochs = 3
	cfg.EnableUpdate = true
	det, err := Train(actions, audience, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Lively audience: the count block sits above the initial threshold
	// T = 1, so no segment is presumed normal.
	for i := range audience {
		for j := range audience[i] {
			audience[i][j] += 1
		}
	}
	for i := 0; i < cfg.SeqLen+4; i++ {
		if _, err := det.Observe(actions[i], audience[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	n := testing.AllocsPerRun(200, func() {
		idx := 8 + i%(len(actions)-8)
		i++
		if _, err := det.Observe(actions[idx], audience[idx]); err != nil {
			t.Fatal(err)
		}
	})
	if n > 0 {
		t.Fatalf("Observe of an unbuffered segment allocates %v times with EnableUpdate, want 0", n)
	}
	if st := updaterState(t, det.upd); len(st.Offsets) != 0 {
		t.Fatalf("fixture buffered %d segments; the test must stream unbuffered ones", len(st.Offsets))
	}
}

// TestObserveRetrainSteadyStateAllocs pins the drift path: on a channel
// whose updater buffers every other segment and retrains at every drift
// check, whole drift cycles — buffering, the drift check, CLSTM_new's
// training and merge, the predictions on the merged weights — allocate
// nothing once the channel has retrained. The channel is a clone, as in
// serving, so its first merge detaches it from the template's weights; the
// measurement starts after it and one prediction on the merged weights.
func TestObserveRetrainSteadyStateAllocs(t *testing.T) {
	const maxBuffer, cycles = 5, 3
	actions, audience := allocFixtureSeries(90)
	cfg := DefaultConfig(16, 6)
	cfg.HiddenI, cfg.HiddenA = 12, 8
	cfg.SeqLen = 4
	cfg.Epochs = 3
	cfg.EnableUpdate = true
	cfg.Update.MaxBuffer = maxBuffer
	cfg.Update.DriftThreshold = 1 // every drift check retrains
	cfg.Update.TrainEpochs = 2
	tmpl, err := Train(actions, audience, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Interaction alternates 0.5 and 1.5 around the initial threshold T = 1,
	// and every window mean T lands between them, so each drift cycle
	// buffers the same every-other pattern: ten segments, a multiple of both
	// batch sizes, so every cycle meets the batches at the same phase and
	// holds as many rows as the one before it.
	for i := range audience {
		level := 0.5 + float64(i%2)
		for j := range audience[i][:len(audience[i])/2] {
			audience[i][j] = level
		}
	}
	for _, batch := range []int{1, 5} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			det, err := tmpl.Clone()
			if err != nil {
				t.Fatal(err)
			}
			results := make([]Result, batch)
			seg, updates := 0, 0
			feed := func() {
				k := seg % len(actions)
				n := min(batch, len(actions)-k)
				if _, err := det.ObserveBatch(actions[k:k+n], audience[k:k+n], results[:n]); err != nil {
					t.Fatal(err)
				}
				for _, r := range results[:n] {
					if r.Updated {
						updates++
					}
				}
				seg += n
			}
			for updates == 0 {
				feed()
			}
			feed() // one prediction on the merged weights

			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			// Mallocs counts the runtime's own allocations too. After the
			// warm-up's collections (and the Ps GOMAXPROCS just dropped,
			// whose page caches return to the heap) the background
			// scavenger still has pages to release; between releases it
			// re-arms its sleep timer on the one P left, and growing that
			// P's timer heap is an allocation inside the window. Returning
			// every free page now leaves it nothing to release, so it parks
			// without a timer.
			debug.FreeOSMemory()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start, from := updates, seg
			for updates < start+cycles {
				feed()
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("%d segments over %d drift cycles allocated %d times, want 0", seg-from, cycles, n)
			}
		})
	}
}

// TestPredictIntoSteadyStateAllocs pins the fused inference engine's
// allocation contract: compiling an InferPlan (at model construction) may
// allocate, but steady-state PredictInto through the plan must be
// allocation-free — including when online TrainSteps interleave with
// predictions, which read the written weights where they are.
func TestPredictIntoSteadyStateAllocs(t *testing.T) {
	actions, audience := allocFixtureSeries(30)
	mcfg := core.DefaultConfig(16, 6)
	mcfg.HiddenI, mcfg.HiddenA = 12, 8
	mcfg.SeqLen = 4
	model, err := core.NewModel(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := core.BuildSamples(actions, audience, mcfg.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	fhat := make([]float64, mcfg.ActionDim)
	ahat := make([]float64, mcfg.AudienceDim)
	// Warm: compile the TrainPlan (training) and run one prediction.
	for i := 0; i < 3; i++ {
		if _, err := model.TrainStep(&samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := model.PredictInto(&samples[0], fhat, ahat); err != nil {
		t.Fatal(err)
	}

	t.Run("predict-only", func(t *testing.T) {
		i := 0
		n := testing.AllocsPerRun(100, func() {
			if err := model.PredictInto(&samples[i%len(samples)], fhat, ahat); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if n > 0 {
			t.Fatalf("steady-state PredictInto allocates %v times, want 0", n)
		}
	})
	t.Run("train-repack-predict", func(t *testing.T) {
		i := 0
		n := testing.AllocsPerRun(50, func() {
			if _, err := model.TrainStep(&samples[i%len(samples)]); err != nil {
				t.Fatal(err)
			}
			// The TrainStep wrote the weights; this PredictInto reads them,
			// without allocating.
			if err := model.PredictInto(&samples[i%len(samples)], fhat, ahat); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if n > 0 {
			t.Fatalf("train+predict cycle allocates %v times, want 0", n)
		}
	})
}

// TestTrainStepSteadyStateAllocs pins the training-side property: a
// steady-state Model.TrainStep — and the updater's per-segment
// Model.HiddenInto — performs zero heap allocations, at the small shape the
// other alloc fixtures use and at the served shape (48/19 dims, hidden
// 32/16, q = 9), where every SIMD block width is in play.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	for _, shape := range []struct {
		name                              string
		actionDim, audienceDim, hI, hA, q int
	}{
		{"quick", 16, 6, 12, 8, 4},
		{"served", 48, 19, 32, 16, 9},
	} {
		t.Run(shape.name, func(t *testing.T) {
			actions, audience := allocSeries(30, shape.actionDim, shape.audienceDim)
			mcfg := core.DefaultConfig(shape.actionDim, shape.audienceDim)
			mcfg.HiddenI, mcfg.HiddenA = shape.hI, shape.hA
			mcfg.SeqLen = shape.q
			model, err := core.NewModel(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			samples, err := core.BuildSamples(actions, audience, mcfg.SeqLen)
			if err != nil {
				t.Fatal(err)
			}
			// Warm: the first steps compile the TrainPlan and allocate the
			// Adam moments.
			for i := 0; i < 3; i++ {
				if _, err := model.TrainStep(&samples[i]); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			n := testing.AllocsPerRun(100, func() {
				if _, err := model.TrainStep(&samples[i%len(samples)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if n > 0 {
				t.Fatalf("steady-state TrainStep allocates %v times per step, want 0", n)
			}
			hidden := make([]float64, mcfg.HiddenI)
			n = testing.AllocsPerRun(100, func() {
				if err := model.HiddenInto(&samples[i%len(samples)], hidden); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if n > 0 {
				t.Fatalf("steady-state HiddenInto allocates %v times per call, want 0", n)
			}
		})
	}
}

// TestObserveCallerReuseSteadyStateAllocs pins the ownership contract the
// serving path's buffer reuse rests on: the detector copies what it keeps,
// so Observe and ObserveBatch fed one set of caller vectors — overwritten
// with the next segment before each call and poisoned with NaN after it —
// return bit-identical results to a twin fed fresh slices, with the updater
// buffering and retraining too; and without the updater they allocate
// nothing.
func TestObserveCallerReuseSteadyStateAllocs(t *testing.T) {
	for _, update := range []bool{false, true} {
		t.Run(map[bool]string{false: "exact", true: "update"}[update], func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			cfg := testConfig()
			if update {
				cfg.EnableUpdate = true
				cfg.Update.MaxBuffer = 6
				cfg.Update.DriftThreshold = 1 // every full buffer retrains
				cfg.Update.TrainEpochs = 1
			}
			trainA, trainU := makeSeries(rng, 120, nil)
			det, err := Train(trainA, trainU, cfg)
			if err != nil {
				t.Fatal(err)
			}
			streamA, streamU := makeSeries(rng, 96, map[int]bool{40: true, 41: true})
			fresh, _ := det.Clone()
			one, _ := det.Clone()
			batched, _ := det.Clone()
			want := observeSerially(t, fresh, streamA, streamU)

			const B = 8
			acts, auds := make([][]float64, B), make([][]float64, B)
			for k := range acts {
				acts[k], auds[k] = make([]float64, len(streamA[0])), make([]float64, len(streamU[0]))
			}
			fill := func(k, seg int) {
				copy(acts[k], streamA[seg])
				copy(auds[k], streamU[seg])
			}
			poison := func() {
				for _, v := range append(acts[:B:B], auds...) {
					for j := range v {
						v[j] = math.NaN()
					}
				}
			}
			got := make([]Result, 0, len(streamA))
			for i := range streamA {
				fill(0, i)
				r, err := one.Observe(acts[0], auds[0])
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, r)
				poison()
			}
			requireSameResults(t, want, got)

			got = got[:0]
			results := make([]Result, B)
			for start := 0; start < len(streamA); start += B {
				n := min(B, len(streamA)-start)
				for k := 0; k < n; k++ {
					fill(k, start+k)
				}
				if _, err := batched.ObserveBatch(acts[:n], auds[:n], results[:n]); err != nil {
					t.Fatal(err)
				}
				got = append(got, results[:n]...)
				poison()
			}
			requireSameResults(t, want, got)

			if update {
				updates := 0
				for _, r := range want {
					if r.Updated {
						updates++
					}
				}
				if updates == 0 {
					t.Fatal("updater never retrained on buffered samples; its copies of the caller's rows went unexercised")
				}
				return
			}
			seg := 0
			if n := testing.AllocsPerRun(100, func() {
				fill(0, seg%len(streamA))
				seg++
				if _, err := one.Observe(acts[0], auds[0]); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("Observe of reused caller vectors allocates %v times, want 0", n)
			}
			if n := testing.AllocsPerRun(20, func() {
				for k := range acts {
					fill(k, (seg+k)%len(streamA))
				}
				seg += B
				if _, err := batched.ObserveBatch(acts, auds, results); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("ObserveBatch of reused caller vectors allocates %v times, want 0", n)
			}
		})
	}
}

// allocatedBytes returns the bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoadDecodesInPlace gates what loading a benchmark-shape model costs
// beyond a fresh model of its configuration: the record's reader and a few
// headers, ≈ 3 KB, gated at 8 KiB. The weights decode into the fresh
// model's own arrays; a gob message buffer (≈ 212 KB at codec version 3)
// or a decode into arrays of its own and a copy adds the file's size or
// the weights' again.
func TestLoadDecodesInPlace(t *testing.T) {
	det, _, _ := benchShapeTemplate(t)
	file := saveBytes(t, det)
	const bound = 8 << 10
	for try := 0; try < 3; try++ {
		var err error
		load := allocatedBytes(func() { _, err = Load(bytes.NewReader(file)) })
		if err != nil {
			t.Fatal(err)
		}
		fresh := allocatedBytes(func() { _, err = core.NewModel(det.Model().Config()) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("Load allocates %d B beyond a fresh model's %d B (file %d B)", int64(load)-int64(fresh), fresh, len(file))
		if load <= fresh+bound {
			return
		}
	}
	t.Fatalf("Load allocates more than a fresh model plus %d B", bound)
}

// TestSnapshotCopiesNoWeights gates the garbage a benchmark-shape
// checkpoint makes outside gob's encode buffer, which records up to codec
// version 3 were written through: the weights and the optimiser moments
// are encoded from the arrays that hold them, gated at a quarter of the
// weights. Copying them first, as checkpoints once did, allocated three
// times the weights (448 KB) more. A version 4 record has no such buffer
// (TestSnapshotAllocatesLittle gates all of it).
func TestSnapshotCopiesNoWeights(t *testing.T) {
	det, _, _ := benchShapeTemplate(t)
	if err := det.Snapshot(io.Discard); err != nil { // the types' gob engines
		t.Fatal(err)
	}
	weights := uint64(8 * det.Model().Params().NumParams())
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	const snapshot, gobBuffer = "aovlis.(*Detector).Snapshot", "encoding/gob.(*encBuffer).Write"
	before := allocatedUnder(snapshot, gobBuffer)
	if err := det.Snapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
	got := allocatedUnder(snapshot, gobBuffer) - before
	t.Logf("a Snapshot allocates %d B outside gob's encode buffer (weights %d B)", got, weights)
	if got > weights/4 {
		t.Fatalf("a Snapshot allocates %d B outside gob's encode buffer, want at most a quarter of the weights' %d B", got, weights)
	}
}

// TestSnapshotAllocatesLittle gates everything a benchmark-shape Snapshot
// allocates: the record is written from the weights' and moments' arrays
// through one pooled buffered writer, ≈ 19 KB when a collection has just
// emptied the pool (its 16 KiB writer), gated at 64 KiB. Through gob it
// allocated ≈ 2.2 MB, four times the record, nearly all of it gob's
// encode buffer growing by append.
func TestSnapshotAllocatesLittle(t *testing.T) {
	det, _, _ := benchShapeTemplate(t)
	const bound = 64 << 10
	var err error
	got := allocatedBytes(func() { err = det.Snapshot(io.Discard) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("a Snapshot allocates %d B", got)
	if got > bound {
		t.Fatalf("a Snapshot allocates %d B, want at most %d", got, bound)
	}
}

// allocatedUnder sums the bytes the memory profile has recorded allocated
// by stacks that run through the function named fn but not through the one
// named except. The profile counts an allocation once the collections after
// it have run; the caller sets MemProfileRate to 1 to have every allocation
// recorded.
func allocatedUnder(fn, except string) uint64 {
	runtime.GC()
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for n := 64; ; n *= 2 {
		recs = make([]runtime.MemProfileRecord, n)
		if got, ok := runtime.MemProfile(recs, true); ok {
			recs = recs[:got]
			break
		}
	}
	var sum uint64
	for i := range recs {
		under, excepted := false, false
		for frames := runtime.CallersFrames(recs[i].Stack()); ; {
			f, more := frames.Next()
			under = under || f.Function == fn
			excepted = excepted || f.Function == except
			if !more {
				break
			}
		}
		if under && !excepted {
			sum += uint64(recs[i].AllocBytes)
		}
	}
	return sum
}
