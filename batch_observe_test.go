package aovlis

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aovlis/internal/ados"
)

// Golden bit-identity suite for Detector.ObserveBatch (ISSUE 5): a batched
// detector must walk the exact same Result sequence — float bits, paths,
// flags, counters — as a serially driven twin over any chunking of the
// stream, including chunks spanning warm-up, drift-triggered retrains
// (which force the mid-batch prediction replay) and error lanes.

// observeSerially drives det one segment at a time.
func observeSerially(t *testing.T, det *Detector, actions, audience [][]float64) []Result {
	t.Helper()
	out := make([]Result, 0, len(actions))
	for i := range actions {
		r, err := det.Observe(actions[i], audience[i])
		if err != nil {
			t.Fatalf("serial observe %d: %v", i, err)
		}
		out = append(out, r)
	}
	return out
}

// observeBatched drives det in chunks of cycling sizes.
func observeBatched(t *testing.T, det *Detector, actions, audience [][]float64, chunks []int) []Result {
	t.Helper()
	out := make([]Result, 0, len(actions))
	scratch := make([]Result, 32)
	ci := 0
	for start := 0; start < len(actions); {
		n := chunks[ci%len(chunks)]
		ci++
		if start+n > len(actions) {
			n = len(actions) - start
		}
		done, err := det.ObserveBatch(actions[start:start+n], audience[start:start+n], scratch[:n])
		if err != nil || done != n {
			t.Fatalf("batch observe [%d,%d): done %d err %v", start, start+n, done, err)
		}
		out = append(out, scratch[:n]...)
		start += n
	}
	return out
}

// requireSameResults compares two Result sequences exactly.
func requireSameResults(t *testing.T, serial, batched []Result) {
	t.Helper()
	if len(serial) != len(batched) {
		t.Fatalf("result counts %d vs %d", len(serial), len(batched))
	}
	for i := range serial {
		s, b := serial[i], batched[i]
		if s.Warmup != b.Warmup || s.Anomaly != b.Anomaly || s.Exact != b.Exact ||
			s.Path != b.Path || s.Updated != b.Updated ||
			math.Float64bits(s.Score) != math.Float64bits(b.Score) {
			t.Fatalf("segment %d diverged: serial %+v, batched %+v", i, s, b)
		}
	}
}

func TestObserveBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	trainA, trainU := makeSeries(rng, 120, nil)
	det, err := Train(trainA, trainU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	anoms := map[int]bool{30: true, 31: true, 77: true}
	streamA, streamU := makeSeries(rng, 110, anoms)

	serialDet, err := det.Clone()
	if err != nil {
		t.Fatal(err)
	}
	batchDet, err := det.Clone()
	if err != nil {
		t.Fatal(err)
	}
	serial := observeSerially(t, serialDet, streamA, streamU)
	batched := observeBatched(t, batchDet, streamA, streamU, []int{3, 1, 8, 2, 5, 13})
	requireSameResults(t, serial, batched)
	if serialDet.Observed() != batchDet.Observed() || serialDet.Detected() != batchDet.Detected() {
		t.Fatalf("counters diverged: serial %d/%d, batched %d/%d",
			serialDet.Observed(), serialDet.Detected(), batchDet.Observed(), batchDet.Detected())
	}
	// The detectors must remain interchangeable afterwards: one more
	// serial segment on each must still agree bitwise.
	moreA, moreU := makeSeries(rng, 1, nil)
	rs, err := serialDet.Observe(moreA[0], moreU[0])
	if err != nil {
		t.Fatal(err)
	}
	rb, err := batchDet.Observe(moreA[0], moreU[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(rs.Score) != math.Float64bits(rb.Score) || rs.Anomaly != rb.Anomaly {
		t.Fatalf("post-batch windows diverged: %+v vs %+v", rs, rb)
	}
}

// TestObserveBatchBitIdenticalUnderUpdates exercises the optimistic-predict
// replay: the updater is tuned to retrain often, so batches regularly span
// a weight change and must re-predict their tail lanes.
func TestObserveBatchBitIdenticalUnderUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cfg := testConfig()
	cfg.EnableUpdate = true
	cfg.Update.MaxBuffer = 6
	cfg.Update.DriftThreshold = 1 // every full buffer retrains
	cfg.Update.TrainEpochs = 1
	trainA, trainU := makeSeries(rng, 120, nil)
	det, err := Train(trainA, trainU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamA, streamU := makeSeries(rng, 90, map[int]bool{40: true})

	serialDet, err := det.Clone()
	if err != nil {
		t.Fatal(err)
	}
	batchDet, err := det.Clone()
	if err != nil {
		t.Fatal(err)
	}
	serial := observeSerially(t, serialDet, streamA, streamU)
	batched := observeBatched(t, batchDet, streamA, streamU, []int{7, 4, 11, 2})
	requireSameResults(t, serial, batched)
	updates := 0
	for _, r := range serial {
		if r.Updated {
			updates++
		}
	}
	if updates == 0 {
		t.Fatal("updater never retrained; the mid-batch replay path went unexercised")
	}
}

// TestObserveBatchErrorSemantics pins the prefix-commit contract: a
// dimension-invalid lane stops the batch at its index with the prefix
// committed, exactly like a failing serial Observe, and the detector stays
// usable and bit-aligned with a serial twin that skipped the bad segment.
func TestObserveBatchErrorSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	trainA, trainU := makeSeries(rng, 120, nil)
	det, err := Train(trainA, trainU, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	streamA, streamU := makeSeries(rng, 30, nil)

	serialDet, _ := det.Clone()
	batchDet, _ := det.Clone()

	serial := observeSerially(t, serialDet, streamA[:20], streamU[:20])

	results := make([]Result, 8)
	acts := append([][]float64{}, streamA[:8]...)
	auds := append([][]float64{}, streamU[:8]...)
	acts[5] = []float64{1, 2} // wrong dimensionality
	done, err := batchDet.ObserveBatch(acts, auds, results)
	if done != 5 || err == nil {
		t.Fatalf("bad lane: done=%d err=%v, want 5 with error", done, err)
	}
	// Resubmit the remainder with the bad lane dropped, then continue.
	rest := make([]Result, 20-5)
	done, err = batchDet.ObserveBatch(streamA[5:20], streamU[5:20], rest)
	if err != nil || done != 15 {
		t.Fatalf("resubmit: done=%d err=%v", done, err)
	}
	batched := append(append([]Result{}, results[:5]...), rest...)
	requireSameResults(t, serial, batched)

	// Empty batch and concurrent-writer guard.
	if n, err := batchDet.ObserveBatch(nil, nil, nil); n != 0 || err != nil {
		t.Fatalf("empty batch: %d, %v", n, err)
	}
	batchDet.observing.Store(1)
	if _, err := batchDet.ObserveBatch(streamA[:1], streamU[:1], results[:1]); !errors.Is(err, ErrConcurrentObserve) {
		t.Fatalf("concurrent guard: %v", err)
	}
	batchDet.observing.Store(0)
}

// TestObserveBatchSteadyStateAllocs pins the batched hot path at zero
// allocations per segment in steady state (EnableUpdate off, stable batch
// size) — the batched counterpart of TestObserveSteadyStateAllocs, run by
// CI's bench-smoke alloc gates.
func TestObserveBatchSteadyStateAllocs(t *testing.T) {
	det, actions, audience := allocFixtureDetector(t)
	const B = 8
	results := make([]Result, B)
	idx := 0
	batch := func() (acts, auds [][]float64) {
		if idx+B > len(actions) {
			idx = 0
		}
		acts, auds = actions[idx:idx+B], audience[idx:idx+B]
		idx += B
		return
	}
	// Warm past the window and size the batch scratch.
	for i := 0; i < 3; i++ {
		acts, auds := batch()
		if _, err := det.ObserveBatch(acts, auds, results); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(40, func() {
		acts, auds := batch()
		if _, err := det.ObserveBatch(acts, auds, results); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state ObserveBatch allocates %v objects/op, want 0", n)
	}
}

// TestObserveBatchMatrix is the bit-identity table over the scoring modes:
// tiered × EnableUpdate, each with a wrong-dimensioned lane inside the
// batch that crosses warm-up and another mid-stream. Results, the (n, err)
// of every call, the counters, the filter/tier statistics and the sliding
// window must match n serial Observe calls exactly — Observe being the
// one-lane case of the same body does not make this vacuous: the chunked
// side batches its predictions (or, tiered, gates lane by lane inside one
// call) and replays them when a retrain lands mid-batch.
func TestObserveBatchMatrix(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		fast, tiered, update bool
	}{
		{"exact", false, false, false},
		{"fastmath", true, false, false},
		{"tiered", false, true, false},
		{"update", false, false, true},
		{"tiered+update", false, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(59))
			cfg := testConfig()
			cfg.FastMath = tc.fast
			if tc.tiered {
				cfg.Tiered = true
				cfg.Tier = ados.TierConfig{DriftMax: 0.6, Margin: 1, MaxRun: 8}
				cfg.TauQuantile = 1
			}
			if tc.update {
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
			streamA, streamU := makeSeries(rng, 70, map[int]bool{40: true, 41: true})
			// Lane 5 sits in the first chunk, right after the q = 4 warm-up
			// lanes and the first predicting lane; lane 33 is mid-stream.
			streamA[5] = []float64{1, 2}
			streamU[33] = []float64{1, 2, 3}

			serialDet, _ := det.Clone()
			batchDet, _ := det.Clone()
			type step struct {
				res Result
				err error
			}
			serial := make([]step, len(streamA))
			for i := range streamA {
				serial[i].res, serial[i].err = serialDet.Observe(streamA[i], streamU[i])
			}

			chunks := []int{7, 3, 1, 9, 16, 2}
			scratch := make([]Result, 16)
			for start, ci := 0, 0; start < len(streamA); ci++ {
				end := min(start+chunks[ci%len(chunks)], len(streamA))
				for start < end { // resubmit past each failing lane, like the shard worker
					n, err := batchDet.ObserveBatch(streamA[start:end], streamU[start:end], scratch[:end-start])
					want := end - start
					for i := start; i < end; i++ {
						if serial[i].err != nil {
							want = i - start
							break
						}
					}
					if n != want || (err != nil) != (start+n < end) {
						t.Fatalf("ObserveBatch[%d,%d) = (%d, %v), serial sequence fails after %d lanes", start, end, n, err, want)
					}
					for i := 0; i < n; i++ {
						if s, b := serial[start+i].res, scratch[i]; s.Warmup != b.Warmup || s.Anomaly != b.Anomaly ||
							s.Exact != b.Exact || s.Path != b.Path || s.Updated != b.Updated ||
							math.Float64bits(s.Score) != math.Float64bits(b.Score) {
							t.Fatalf("segment %d diverged: serial %+v, batched %+v", start+i, s, b)
						}
					}
					if err != nil {
						if err.Error() != serial[start+n].err.Error() {
							t.Fatalf("segment %d: batch error %q, serial error %q", start+n, err, serial[start+n].err)
						}
						n++ // skip the failed lane
					}
					start += n
				}
			}

			if serialDet.Observed() != batchDet.Observed() || serialDet.Detected() != batchDet.Detected() {
				t.Fatalf("counters diverged: serial %d/%d, batched %d/%d",
					serialDet.Observed(), serialDet.Detected(), batchDet.Observed(), batchDet.Detected())
			}
			if serialDet.TierStats() != batchDet.TierStats() {
				t.Fatalf("tier stats diverged: serial %+v, batched %+v", serialDet.TierStats(), batchDet.TierStats())
			}
			if !reflect.DeepEqual(serialDet.actWin, batchDet.actWin) || !reflect.DeepEqual(serialDet.audWin, batchDet.audWin) ||
				len(batchDet.actWin) != cfg.SeqLen {
				t.Fatalf("windows diverged: serial %v, batched %v", serialDet.actWin, batchDet.actWin)
			}
			updates, skipped := 0, batchDet.TierStats().Skipped
			for _, s := range serial {
				if s.res.Updated {
					updates++
				}
			}
			if tc.update && updates == 0 {
				t.Fatal("updater never retrained; the replay-on-version-move path went unexercised")
			}
			if tc.tiered && skipped == 0 {
				t.Fatal("tier gate never skipped; the gated path went unexercised")
			}
		})
	}
}
