package serve

// Slow-burn-drift soak regression (ISSUE 10 satellite): the adversarial
// slow-burn-drift loadgen preset feeds channels whose feature base drifts
// across the run, pushing the dynamic updater through retrains, while the
// pool is checkpointed concurrently and then killed and warm-restarted
// mid-stream. The invariant is the soak family's: every channel's verdict
// sequence is bit-identical to a chaos-free serial replay on a fresh
// clone, and the pool's tier-skip gauge equals the tier-skip verdicts the
// streams actually produced — drift, retrain and restore are all
// invisible to scores and counters.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/ados"
	"aovlis/internal/serve/loadgen"
)

// TestWithChannel pins the quiesced accessor's contract: fn sees the
// attached detector at a segment boundary, its error comes back verbatim,
// and unknown channels are refused.
func TestWithChannel(t *testing.T) {
	pool, err := NewDetectorPool(Config{Shards: 2, QueueDepth: 16, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	tmpl := trainTemplate(t)
	det, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Attach("wc-0", det); err != nil {
		t.Fatal(err)
	}
	var saw Detector
	if err := pool.WithChannel("wc-0", func(d Detector) error { saw = d; return nil }); err != nil {
		t.Fatal(err)
	}
	if saw != Detector(det) {
		t.Fatal("WithChannel handed out a different detector than was attached")
	}
	wantErr := fmt.Errorf("absorb failed")
	if err := pool.WithChannel("wc-0", func(Detector) error { return wantErr }); err != wantErr {
		t.Fatalf("fn error not propagated: %v", err)
	}
	if err := pool.WithChannel("nope", func(Detector) error { return nil }); err == nil {
		t.Fatal("unknown channel accepted")
	}
	// Quiesced access interleaves safely with live submissions.
	acts, auds := testStream(31, 30)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := range acts {
			if _, err := pool.Observe("wc-0", acts[s], auds[s]); err != nil {
				t.Errorf("observe %d: %v", s, err)
				return
			}
		}
	}()
	for k := 0; k < 10; k++ {
		if err := pool.WithChannel("wc-0", func(Detector) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestPoolSoakSlowBurnDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("drift soak skipped in -short mode")
	}
	lcfg := loadgen.Config{
		Shape: loadgen.SlowBurnDrift, Seed: 99,
		Duration: 4 * time.Second, BaseRate: 250,
		Channels: 6, ActionDim: 16, AudienceDim: 6,
		Drift: 1.5,
	}
	sched, err := loadgen.New(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reproducibility witness, as in the SLO harness.
	if again, err := loadgen.New(lcfg); err != nil || again.Hash() != sched.Hash() {
		t.Fatalf("drift schedule not reproducible (err %v)", err)
	}

	// Per-channel ordered segment streams out of the shared schedule.
	type stream struct{ acts, auds [][]float64 }
	streams := make([]stream, lcfg.Channels)
	for i := range sched.Arrivals {
		a := &sched.Arrivals[i]
		st := &streams[a.ChannelIndex]
		st.acts = append(st.acts, a.Action)
		st.auds = append(st.auds, a.Audience)
	}
	for i := range streams {
		if len(streams[i].acts) < 20 {
			t.Fatalf("channel %d got only %d segments; schedule too sparse", i, len(streams[i].acts))
		}
	}

	// The updating template under the tiered gate: drift must cross weight
	// changes AND tier skips, and both must replay bit-identically.
	tmpl := trainUpdatingTemplate(t, func(cfg *aovlis.Config) {
		cfg.Tiered = true
		cfg.Tier = ados.TierConfig{DriftMax: 0.6, Margin: 1, MaxRun: 8}
	})
	tmpl.SetTau(5 * tmpl.Tau())

	ids := make([]string, lcfg.Channels)
	scores := make([][]soakResult, lcfg.Channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("drift-%02d", i)
	}
	pool, err := NewDetectorPool(Config{Shards: 3, QueueDepth: 128, Policy: Block, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Attach(ids[i], det); err != nil {
			t.Fatal(err)
		}
	}

	const window = 4
	feed := func(p *DetectorPool, phase int) { // phase 0: first half, 1: rest
		var wg sync.WaitGroup
		for i := 0; i < lcfg.Channels; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				st := streams[i]
				from, to := 0, len(st.acts)/2
				if phase == 1 {
					from, to = to, len(st.acts)
				}
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

	// Phase 1: first half of every stream with a concurrent checkpoint in
	// flight — snapshotting DURING retrain-heavy load.
	dir := t.TempDir()
	snapDone := make(chan error, 1)
	go func() {
		_, err := pool.Snapshot(dir)
		snapDone <- err
	}()
	feed(pool, 0)
	if err := <-snapDone; err != nil {
		t.Fatalf("concurrent snapshot: %v", err)
	}

	// Mid-stream restart: checkpoint, kill, warm-restart on a different
	// shard layout.
	if _, err := pool.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	pool, err = RestorePool(dir, Config{Shards: 5, QueueDepth: 128, Policy: Block, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Phase 2: the drifted tail on the restored pool.
	feed(pool, 1)
	if t.Failed() {
		t.FailNow()
	}

	// Chaos-free serial replay must match bit-for-bit, and the drift must
	// have actually driven the updater through a retrain somewhere.
	retrained := 0
	skips := uint64(0)
	for i := range ids {
		st := streams[i]
		if len(scores[i]) != len(st.acts) {
			t.Fatalf("channel %s: %d verdicts, want %d", ids[i], len(scores[i]), len(st.acts))
		}
		replay, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		for s := range st.acts {
			r, err := replay.Observe(st.acts[s], st.auds[s])
			if err != nil {
				t.Fatalf("replay %s segment %d: %v", ids[i], s, err)
			}
			if got, want := scores[i][s], toSoakResult(r); got != want {
				t.Fatalf("channel %s segment %d diverged under drift chaos: got %+v, replay %+v",
					ids[i], s, got, want)
			}
		}
		for _, r := range scores[i] {
			if r.updated {
				retrained++
			}
			if r.path == "tier-skip" {
				skips++
			}
		}
	}
	if retrained == 0 {
		t.Fatal("slow-burn drift never drove the updater through a retrain")
	}
	if skips == 0 {
		t.Fatal("tiered gate never fired under slow drift; the equality above did not exercise it")
	}
	// Tier-gauge consistency across snapshot, restart and retrain: the
	// pool-wide gauge equals the tier-skip verdicts the streams produced.
	if ps := pool.PoolStats(); ps.TierSkipped != skips {
		t.Fatalf("pool tier-skip gauge %d, streams produced %d tier-skip verdicts", ps.TierSkipped, skips)
	}
	t.Logf("drift soak: %d retrains, %d tier skips across %d channels", retrained, skips, lcfg.Channels)
}
