package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"aovlis"
	"aovlis/internal/ados"
	"aovlis/internal/mat"
)

// testStream builds a deterministic per-channel feature stream.
func testStream(seed int64, n int) (actions, audience [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		f := make([]float64, 16)
		f[(i/4)%6] = 1
		for j := range f {
			f[j] += 0.02 + 0.01*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, 6)
		for j := range a {
			a[j] = 0.3 + 0.03*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}
	return actions, audience
}

// TestPoolBatchedBitIdentical drives the same per-channel streams through
// a micro-batched pool (async windowed submits to build real backlog) and
// a serial pool, and requires bit-identical score sequences — batching
// must change throughput, never results.
func TestPoolBatchedBitIdentical(t *testing.T) {
	const channels, segs = 6, 80
	tmpl := trainTemplate(t)

	type stream struct{ acts, auds [][]float64 }
	streams := make([]stream, channels)
	for i := range streams {
		streams[i].acts, streams[i].auds = testStream(int64(100+i), segs)
	}

	runPool := func(cfg Config, windowed bool) [][]float64 {
		p := newTestPool(t, cfg)
		defer p.Close()
		for i := 0; i < channels; i++ {
			det, err := tmpl.Clone()
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Attach(fmt.Sprintf("ch-%d", i), det); err != nil {
				t.Fatal(err)
			}
		}
		scores := make([][]float64, channels)
		var wg sync.WaitGroup
		for i := 0; i < channels; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id := fmt.Sprintf("ch-%d", i)
				st := streams[i]
				if !windowed {
					for s := 0; s < segs; s++ {
						r, err := p.Observe(id, st.acts[s], st.auds[s])
						if err != nil {
							t.Error(err)
							return
						}
						scores[i] = append(scores[i], r.Score)
					}
					return
				}
				// Windowed async submission: keep W outstanding so the
				// shard worker actually finds a backlog to batch.
				const W = 8
				ring := make([]<-chan Outcome, 0, W)
				collect := func(out <-chan Outcome) {
					o := <-out
					if o.Err != nil {
						t.Error(o.Err)
						return
					}
					scores[i] = append(scores[i], o.Result.Score)
				}
				for s := 0; s < segs; s++ {
					out := make(chan Outcome, 1)
					err := p.SubmitInto(id, st.acts[s], st.auds[s], out)
					if err != nil {
						t.Error(err)
						return
					}
					ring = append(ring, out)
					if len(ring) == W {
						collect(ring[0])
						ring = ring[1:]
					}
				}
				for _, out := range ring {
					collect(out)
				}
			}(i)
		}
		wg.Wait()
		return scores
	}

	serial := runPool(Config{Shards: 3, QueueDepth: 64}, false)
	batched := runPool(Config{Shards: 3, QueueDepth: 64, Batch: 16}, true)
	for i := range serial {
		if len(serial[i]) != len(batched[i]) {
			t.Fatalf("channel %d: %d vs %d results", i, len(serial[i]), len(batched[i]))
		}
		for s := range serial[i] {
			if math.Float64bits(serial[i][s]) != math.Float64bits(batched[i][s]) {
				t.Fatalf("channel %d segment %d: serial %x, batched %x",
					i, s, math.Float64bits(serial[i][s]), math.Float64bits(batched[i][s]))
			}
		}
	}
}

// TestPoolBatchOccupancyStats pins the occupancy counters: with a single
// producer keeping a deep backlog on one channel, the shard worker must
// batch multiple segments per scoring round and account for them.
func TestPoolBatchOccupancyStats(t *testing.T) {
	tmpl := trainTemplate(t)
	p := newTestPool(t, Config{Shards: 1, QueueDepth: 256, Batch: 8})
	defer p.Close()
	det, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Attach("deep", det); err != nil {
		t.Fatal(err)
	}
	acts, auds := testStream(9, 96)
	outs := make([]<-chan Outcome, 0, len(acts))
	for s := range acts {
		out := make(chan Outcome, 1)
		err := p.SubmitInto("deep", acts[s], auds[s], out)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	for _, out := range outs {
		if o := <-out; o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	st, err := p.Stats("deep")
	if err != nil {
		t.Fatal(err)
	}
	if st.Batched != uint64(len(acts)) {
		t.Fatalf("batched counter %d, want %d", st.Batched, len(acts))
	}
	if st.Batches == 0 || st.Batches >= st.Batched {
		t.Fatalf("batches %d for %d segments: no batching happened", st.Batches, st.Batched)
	}
	if want := float64(st.Batched) / float64(st.Batches); st.BatchOccupancy != want {
		t.Fatalf("occupancy %v, want %v", st.BatchOccupancy, want)
	}
	ps := p.PoolStats()
	if ps.Batched != st.Batched || ps.Batches != st.Batches || ps.BatchOccupancy != st.BatchOccupancy {
		t.Fatalf("pool stats %+v disagree with channel stats %+v", ps, st)
	}
}

// TestPoolBatchFakeDetectorFallback pins the worker's side of the
// ObserveBatch contract with a fake that fails mid-run: a failed lane fails
// alone, the lanes after it are resubmitted, and error accounting matches
// the serial path. A gated channel on the same shard holds the worker while
// the backlog builds, so the drains are 8, 8, 8, 8 and 3 and a failure
// (every 7th segment) splits its round in two unless it is the last lane.
func TestPoolBatchFakeDetectorFallback(t *testing.T) {
	p := newTestPool(t, Config{Shards: 1, QueueDepth: 64, Batch: 8})
	defer p.Close()
	gate := newGatedDetector(t)
	fd := &fakeDetector{warmLeft: 2, anomalyEvery: 5, failEvery: 7}
	if err := p.Attach("gate", gate); err != nil {
		t.Fatal(err)
	}
	if err := p.Attach("fake", fd); err != nil {
		t.Fatal(err)
	}
	held := make(chan Outcome, 1)
	if err := p.SubmitInto("gate", []float64{1}, []float64{1}, held); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st, _ := p.Stats("gate")
		return st.QueueDepth == 0
	})
	const n = 35
	outs := make([]<-chan Outcome, 0, n)
	for i := 0; i < n; i++ {
		out := make(chan Outcome, 1)
		err := p.SubmitInto("fake", []float64{1}, []float64{1}, out)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	gate.release <- struct{}{}
	<-held
	var fails, anoms int
	for i, out := range outs {
		o := <-out
		if (o.Err != nil) != ((i+1)%7 == 0) {
			t.Fatalf("segment %d: %+v, want a failure at every 7th segment only", i+1, o)
		}
		if o.Err != nil {
			fails++
		} else if o.Result.Anomaly {
			anoms++
		}
	}
	if fails != n/7 {
		t.Fatalf("failures %d, want %d", fails, n/7)
	}
	st, err := p.Stats("fake")
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != uint64(n/7) || st.Observed != uint64(n-n/7) || st.Detected != uint64(anoms) {
		t.Fatalf("stats %+v inconsistent with %d anomalies", st, anoms)
	}
	if st.Batched != st.Observed {
		t.Fatalf("batched counter %d, want %d (scored observations)", st.Batched, st.Observed)
	}
	// Drains of 8, 8, 8, 8 and 3: each splits at its failed lane, and the
	// last one's failure is its final lane, so nothing follows it.
	if st.Batches != 9 {
		t.Fatalf("%d scoring rounds, want 9: a failure did not end its run at the failed lane", st.Batches)
	}
}

// TestPoolBatchErrorLaneResubmit pins the mid-batch error contract with a
// real detector: a dimension-invalid segment in a batched backlog fails
// alone; its neighbours still score.
func TestPoolBatchErrorLaneResubmit(t *testing.T) {
	tmpl := trainTemplate(t)
	p := newTestPool(t, Config{Shards: 1, QueueDepth: 64, Batch: 16})
	defer p.Close()
	det, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Attach("bad-lane", det); err != nil {
		t.Fatal(err)
	}
	acts, auds := testStream(13, 12)
	acts[6] = []float64{1, 2, 3} // wrong dims mid-backlog
	outs := make([]<-chan Outcome, 0, len(acts))
	for s := range acts {
		out := make(chan Outcome, 1)
		err := p.SubmitInto("bad-lane", acts[s], auds[s], out)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	for s, out := range outs {
		o := <-out
		if s == 6 {
			if o.Err == nil {
				t.Fatal("bad lane did not fail")
			}
			continue
		}
		if o.Err != nil {
			t.Fatalf("segment %d: %v", s, o.Err)
		}
	}
	st, _ := p.Stats("bad-lane")
	if st.Errors != 1 || st.Observed != uint64(len(acts)-1) {
		t.Fatalf("stats %+v, want 1 error and %d observed", st, len(acts)-1)
	}
}

// TestPoolBatchConfigValidate pins the new Batch field's validation.
func TestPoolBatchConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Batch < 2 {
		t.Fatalf("DefaultConfig batching disabled (Batch=%d)", cfg.Batch)
	}
	cfg.Batch = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Batch accepted")
	}
	cfg.Batch = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Batch=0 (serial) rejected: %v", err)
	}
}

// TestPoolBatchedSnapshotQuiesce pins that a control job arriving inside a
// drained backlog still runs at a segment boundary: snapshots under
// batched load must commit consistent states (full equality is covered by
// the soak test; here we just hammer the interleaving under -race).
func TestPoolBatchedSnapshotQuiesce(t *testing.T) {
	tmpl := trainTemplate(t)
	p := newTestPool(t, Config{Shards: 2, QueueDepth: 128, Batch: 8})
	defer p.Close()
	for i := 0; i < 4; i++ {
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Attach(fmt.Sprintf("q-%d", i), det); err != nil {
			t.Fatal(err)
		}
	}
	acts, auds := testStream(21, 60)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("q-%d", i)
			outs := make([]<-chan Outcome, 0, len(acts))
			for s := range acts {
				out := make(chan Outcome, 1)
				err := p.SubmitInto(id, acts[s], auds[s], out)
				if err != nil {
					t.Error(err)
					return
				}
				outs = append(outs, out)
			}
			for _, out := range outs {
				if o := <-out; o.Err != nil {
					t.Error(o.Err)
				}
			}
		}(i)
	}
	dir := t.TempDir()
	for k := 0; k < 3; k++ {
		if _, err := p.Snapshot(dir); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestTierSkippedMatchesDetector: a channel's TierSkipped is tallied from
// its delivered tier-skip verdicts and seeded at Attach from a restored
// detector, and it equals the detector's own TierStats().Skipped after a
// batch with a mis-dimensioned lane, after a checkpoint and RestorePool,
// and after more traffic on the restored pool.
func TestTierSkippedMatchesDetector(t *testing.T) {
	// The tiered soak's lax gate and widened τ, so the gate fires here.
	tmpl := trainTemplate(t, func(cfg *aovlis.Config) {
		cfg.Tiered = true
		cfg.Tier = ados.TierConfig{DriftMax: 0.6, Margin: 1, MaxRun: 8}
	})
	tmpl.SetTau(5 * tmpl.Tau())
	det, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 1, QueueDepth: 64, Batch: 16}
	p := newTestPool(t, cfg)
	if err := p.Attach("tier", det); err != nil {
		t.Fatal(err)
	}
	acts, auds := testStream(21, 80)
	acts[30] = []float64{1, 2, 3} // wrong dims, mid-way through the second batch

	verdictSkips := uint64(0)
	// feed parks the shard behind a control job, queues segments
	// [from, to), then releases it: the worker drains them in batches of 16.
	feed := func(p *DetectorPool, from, to int) {
		t.Helper()
		entered, gate, parked := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		go func() {
			parked <- p.WithChannel("tier", func(*aovlis.Detector) error {
				close(entered)
				<-gate
				return nil
			})
		}()
		<-entered
		outs := make([]chan Outcome, 0, to-from)
		for s := from; s < to; s++ {
			out := make(chan Outcome, 1)
			if err := p.SubmitInto("tier", acts[s], auds[s], out); err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
		close(gate)
		if err := <-parked; err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			o := <-out
			if (o.Err != nil) != (from+i == 30) {
				t.Fatalf("segment %d: err %v", from+i, o.Err)
			}
			if o.Result.Path == "tier-skip" {
				verdictSkips++
			}
		}
	}
	check := func(phase string, p *DetectorPool) {
		t.Helper()
		var skipped int
		if err := p.WithChannel("tier", func(d *aovlis.Detector) error {
			skipped = d.TierStats().Skipped
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		st, err := p.Stats("tier")
		if err != nil {
			t.Fatal(err)
		}
		if st.TierSkipped != uint64(skipped) || st.TierSkipped != verdictSkips {
			t.Fatalf("%s: TierSkipped %d, detector skipped %d, tier-skip verdicts %d",
				phase, st.TierSkipped, skipped, verdictSkips)
		}
	}

	feed(p, 0, 48)
	if st, _ := p.Stats("tier"); st.Errors != 1 || st.BatchOccupancy <= 1 {
		t.Fatalf("stats %+v, want the bad lane's one error inside real batches", st)
	}
	if verdictSkips == 0 {
		t.Fatal("the tier gate never fired; the count was not exercised")
	}
	check("after a batch with a bad lane", p)

	dir := t.TempDir()
	if _, err := p.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreDir(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	check("after RestorePool", restored)

	before := verdictSkips
	feed(restored, 48, len(acts))
	if verdictSkips == before {
		t.Fatal("the tier gate never fired after the restore")
	}
	check("after traffic on the restored pool", restored)
}
