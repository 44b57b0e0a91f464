package serve

// Soak/chaos integration test (ISSUE 5 satellite): 64 channels under
// sustained micro-batched load while the pool is snapshotted concurrently,
// channels are migrated out and back (ExportChannel → Detach →
// AttachSnapshot), and the whole pool is killed and warm-restarted from
// its checkpoint directory mid-stream with a different shard count. The
// invariant: every channel's full verdict sequence is bit-identical to a
// chaos-free serial replay on a fresh clone — batching, checkpointing,
// migration and restart are all invisible to scores.
//
// The test is -race clean and skipped under -short so the quick tier-1
// loop stays fast; CI runs the full version.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"aovlis"
	"aovlis/internal/ados"
)

// soakResult captures the comparable part of a verdict.
type soakResult struct {
	warmup, anomaly, updated bool
	score                    uint64 // float bits
	path                     string
}

func toSoakResult(r aovlis.Result) soakResult {
	return soakResult{
		warmup: r.Warmup, anomaly: r.Anomaly, updated: r.Updated,
		score: math.Float64bits(r.Score), path: r.Path,
	}
}

// trainUpdatingTemplate trains a template with the dynamic updater tuned
// to retrain frequently, so the soak also stresses weight mutation under
// batching and snapshots.
func trainUpdatingTemplate(t testing.TB, mutate ...func(*aovlis.Config)) *aovlis.Detector {
	t.Helper()
	cfg := aovlis.DefaultConfig(16, 6)
	cfg.HiddenI, cfg.HiddenA = 12, 8
	cfg.SeqLen = 4
	cfg.Epochs = 4
	cfg.EnableUpdate = true
	cfg.Update.MaxBuffer = 10
	cfg.Update.DriftThreshold = 1
	cfg.Update.TrainEpochs = 1
	for _, m := range mutate {
		m(&cfg)
	}
	rng := rand.New(rand.NewSource(7))
	actions, audience := testStream(rng.Int63(), 90)
	det, err := aovlis.Train(actions, audience, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestPoolSoakChaos(t *testing.T) { runPoolSoakChaos(t, false) }

// TestPoolSoakChaosTiered reruns the whole soak under the tiered
// scoring mode (ISSUE 6 satellite): deterministic replay must
// hold with the skip gate active — the gate's anchor state and counters
// ride the same snapshot/migration/restart machinery, and the batch path
// falls back to serial per-lane scoring — and the tier counters must
// survive every Snapshot/Restore round trip the chaos performs.
func TestPoolSoakChaosTiered(t *testing.T) { runPoolSoakChaos(t, true) }

func runPoolSoakChaos(t *testing.T, tiered bool) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		channels   = 64
		updatingCh = 4 // channels 0..3 run the drift-updating template
		segs       = 120
		window     = 4 // outstanding submissions per channel
	)
	var mutate []func(*aovlis.Config)
	if tiered {
		// A lax gate, not the shipped conservative default: the soak's
		// job is proving replay determinism WITH skips happening, so the
		// gate must actually fire on the test streams (asserted below).
		mutate = append(mutate, func(cfg *aovlis.Config) {
			cfg.Tiered = true
			cfg.Tier = ados.TierConfig{DriftMax: 0.6, Margin: 1, MaxRun: 8}
		})
	}
	tmpl := trainTemplate(t, mutate...)
	updTmpl := trainUpdatingTemplate(t, mutate...)
	if tiered {
		// The small 4-epoch soak models reconstruct too loosely for the
		// proxy bound to clear the strict 0.95-quantile τ (the filter's own
		// JSmax bound never fires on them either). Widen τ so the normal
		// threshold sits above the reconstruction error and skips happen;
		// clones inherit the adjusted τ through Save/Load.
		for _, d := range []*aovlis.Detector{tmpl, updTmpl} {
			d.SetTau(5 * d.Tau())
		}
	}
	template := func(i int) *aovlis.Detector {
		if i < updatingCh {
			return updTmpl
		}
		return tmpl
	}

	type stream struct{ acts, auds [][]float64 }
	streams := make([]stream, channels)
	for i := range streams {
		streams[i].acts, streams[i].auds = testStream(int64(5000+i), segs)
	}
	ids := make([]string, channels)
	scores := make([][]soakResult, channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("soak-%02d", i)
	}

	pool, err := NewDetectorPool(Config{Shards: 4, QueueDepth: 256, Policy: Block, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < channels; i++ {
		det, err := template(i).Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Attach(ids[i], det); err != nil {
			t.Fatal(err)
		}
	}

	// feed drives segments [from, to) of every channel with `window`
	// outstanding async submissions each, collecting verdicts in order.
	feed := func(p *DetectorPool, from, to int) {
		var wg sync.WaitGroup
		for i := 0; i < channels; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				st := streams[i]
				ring := make([]<-chan Outcome, 0, window)
				collect := func(out <-chan Outcome) {
					o := <-out
					if o.Err != nil {
						t.Errorf("channel %s: %v", ids[i], o.Err)
						return
					}
					scores[i] = append(scores[i], toSoakResult(o.Result))
				}
				for s := from; s < to; s++ {
					out, err := p.Submit(ids[i], st.acts[s], st.auds[s])
					if err != nil {
						t.Errorf("channel %s submit %d: %v", ids[i], s, err)
						return
					}
					ring = append(ring, out)
					if len(ring) == window {
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
	}

	dir := t.TempDir()

	// Phase 1: load with two concurrent full-pool checkpoints in flight.
	snapDone := make(chan error, 2)
	go func() {
		for k := 0; k < 2; k++ {
			_, err := pool.Snapshot(dir)
			snapDone <- err
		}
	}()
	feed(pool, 0, segs/3)
	for k := 0; k < 2; k++ {
		if err := <-snapDone; err != nil {
			t.Fatalf("concurrent snapshot: %v", err)
		}
	}

	// Migration chaos: export a spread of channels (including an updating
	// one), detach them, and re-attach from the exported snapshot — the
	// HTTP migration path without the HTTP.
	for _, i := range []int{1, 13, 40, 63} {
		var buf bytes.Buffer
		if err := pool.ExportChannel(ids[i], &buf); err != nil {
			t.Fatalf("export %s: %v", ids[i], err)
		}
		if err := pool.Detach(ids[i]); err != nil {
			t.Fatal(err)
		}
		if err := pool.AttachSnapshot(ids[i], &buf); err != nil {
			t.Fatalf("re-attach %s: %v", ids[i], err)
		}
	}

	// Phase 2: more load with another concurrent checkpoint.
	go func() {
		_, err := pool.Snapshot(dir)
		snapDone <- err
	}()
	feed(pool, segs/3, 2*segs/3)
	if err := <-snapDone; err != nil {
		t.Fatalf("concurrent snapshot: %v", err)
	}

	// Restart chaos: final checkpoint, kill the pool, warm-restart from
	// the directory with a different shard count and batch cap.
	if _, err := pool.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	pool, err = RestorePool(dir, Config{Shards: 7, QueueDepth: 256, Policy: Block, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Phase 3: finish the streams on the restarted pool.
	feed(pool, 2*segs/3, segs)
	if t.Failed() {
		t.FailNow()
	}

	// Chaos-free replay: a fresh clone per channel, driven serially, must
	// produce the identical verdict sequence.
	for i := 0; i < channels; i++ {
		if len(scores[i]) != segs {
			t.Fatalf("channel %s: %d verdicts, want %d", ids[i], len(scores[i]), segs)
		}
		replay, err := template(i).Clone()
		if err != nil {
			t.Fatal(err)
		}
		st := streams[i]
		for s := 0; s < segs; s++ {
			r, err := replay.Observe(st.acts[s], st.auds[s])
			if err != nil {
				t.Fatalf("replay %s segment %d: %v", ids[i], s, err)
			}
			if got, want := scores[i][s], toSoakResult(r); got != want {
				t.Fatalf("channel %s segment %d diverged under chaos: got %+v, replay %+v",
					ids[i], s, got, want)
			}
		}
		if i < updatingCh {
			upd := 0
			for _, r := range scores[i] {
				if r.updated {
					upd++
				}
			}
			if upd == 0 {
				t.Fatalf("channel %s: updater never retrained; chaos never crossed a weight change", ids[i])
			}
		}
	}

	// Lifetime counters must have survived migration and restart.
	st, err := pool.Stats(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if st.Observed != segs {
		t.Fatalf("channel %s lifetime observed %d, want %d", ids[1], st.Observed, segs)
	}
	if ps := pool.PoolStats(); ps.BatchOccupancy <= 1 {
		t.Logf("note: pool-wide batch occupancy %.2f (backlog too shallow to batch)", ps.BatchOccupancy)
	}

	// Tiered mode: the skip gate must have fired somewhere (otherwise the
	// replay equality above never exercised it), and the pool-wide skip
	// gauge — seeded from restored detectors at Attach and refreshed by the
	// shard workers — must equal the tier-skip verdicts the streams
	// actually produced, proving the counters survived the checkpoint,
	// migration and warm-restart round trips.
	if tiered {
		skips := uint64(0)
		for i := range scores {
			for _, r := range scores[i] {
				if r.path == "tier-skip" {
					skips++
				}
			}
		}
		if skips == 0 {
			t.Fatal("tiered soak produced no tier-skip verdicts; the gate never fired under chaos")
		}
		if ps := pool.PoolStats(); ps.TierSkipped != skips {
			t.Fatalf("pool tier-skip gauge %d, streams produced %d tier-skip verdicts", ps.TierSkipped, skips)
		}
		t.Logf("tiered soak: %d of %d verdicts were tier skips", skips, channels*segs)
	}
}
