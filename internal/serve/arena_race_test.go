package serve

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"aovlis"
	"aovlis/internal/core"
	"aovlis/internal/update"
)

// TestShardArenasAreIsolated drives many channels concurrently through a
// multi-shard pool and compares every channel's scores bitwise against a
// reference detector driven serially. Each detector owns its window; the
// lane state a prediction runs on is a set it borrows for the call from
// the free list of its configuration (core.Lanes), so no two shards may
// ever hold the same set at once. If that broke, concurrently reused
// buffers would corrupt the forward passes (caught here as score
// divergence) and the unsynchronised accesses would trip the race detector
// (run this under -race; CI does).
func TestShardArenasAreIsolated(t *testing.T) {
	const (
		channels = 6
		segments = 40
	)
	tmpl := trainTemplate(t)

	// Build a deterministic monitored series once.
	actions := make([][]float64, segments)
	audience := make([][]float64, segments)
	for i := range actions {
		f := make([]float64, 16)
		f[i%16] = 0.5
		for j := range f {
			f[j] += 0.05
		}
		a := make([]float64, 6)
		for j := range a {
			a[j] = 0.25 + 0.01*float64(i%7)
		}
		actions[i] = f
		audience[i] = a
	}

	// Reference: one clone, driven serially.
	ref, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]aovlis.Result, segments)
	for i := range actions {
		r, err := ref.Observe(actions[i], audience[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	// Pool: more shards than cores typically, channels hashed across them,
	// every channel fed the same series concurrently.
	p := newTestPool(t, Config{Shards: 4, QueueDepth: 64})
	ids := make([]string, channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("arena-%d", i)
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Attach(ids[i], det); err != nil {
			t.Fatal(err)
		}
	}

	results := make([][]aovlis.Result, channels)
	var wg sync.WaitGroup
	for c := 0; c < channels; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = make([]aovlis.Result, segments)
			for i := range actions {
				r, err := p.Observe(ids[c], actions[i], audience[i])
				if err != nil {
					t.Errorf("channel %d segment %d: %v", c, i, err)
					return
				}
				results[c][i] = r
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for c := 0; c < channels; c++ {
		for i := range want {
			got := results[c][i]
			if got.Anomaly != want[i].Anomaly || got.Warmup != want[i].Warmup || got.Path != want[i].Path {
				t.Fatalf("channel %d segment %d: decision %+v, reference %+v", c, i, got, want[i])
			}
			if math.Float64bits(got.Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("channel %d segment %d: score %v differs from reference %v (plan buffers shared across shards?)",
					c, i, got.Score, want[i].Score)
			}
		}
	}
}

// TestShardsShareLaneSets drives 32 updating channels over a 2-shard pool
// in 16-segment batches from 4 concurrent submitters: half are clones of
// the template, half restored from snapshots of clones that had observed a
// prefix of their streams. Every verdict must be bit for bit the one the
// channel's serial Observe run gives, and the pool's detectors, which
// borrow their lane sets and CLSTM_new trainers from the lists of their
// one configuration, must have made at most one of each per shard.
func TestShardsShareLaneSets(t *testing.T) {
	const (
		channels, shards, submitters = 32, 2, 4
		prefix, segments, batch      = 11, 64, 16
	)
	// A seed of its own gives the template a configuration, and so lists,
	// no other test's models use.
	tmpl := trainUpdatingTemplate(t, func(c *aovlis.Config) { c.Seed = 4049 })
	mcfg := tmpl.Model().Config()

	type feed struct{ acts, auds [][]float64 }
	feeds := make([]feed, channels)
	pooled := make([]*aovlis.Detector, channels)
	want := make([][]aovlis.Result, channels)
	for c := range feeds {
		feeds[c].acts, feeds[c].auds = testStream(int64(300+c), prefix+segments)
		ref, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		from := 0
		if c%2 == 1 {
			// A restored channel: the reference observed the prefix and
			// the pool gets its snapshot.
			from = prefix
			for i := 0; i < from; i++ {
				if _, err := ref.Observe(feeds[c].acts[i], feeds[c].auds[i]); err != nil {
					t.Fatal(err)
				}
			}
			var snap bytes.Buffer
			if err := ref.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			if pooled[c], err = aovlis.RestoreDetector(&snap); err != nil {
				t.Fatal(err)
			}
		} else if pooled[c], err = tmpl.Clone(); err != nil {
			t.Fatal(err)
		}
		feeds[c].acts, feeds[c].auds = feeds[c].acts[from:from+segments], feeds[c].auds[from:from+segments]
		for i := range feeds[c].acts {
			r, err := ref.Observe(feeds[c].acts[i], feeds[c].auds[i])
			if err != nil {
				t.Fatal(err)
			}
			want[c] = append(want[c], r)
		}
	}

	p := newTestPool(t, Config{Shards: shards, QueueDepth: 4 * batch, Batch: batch})
	for c, det := range pooled {
		if err := p.Attach(fmt.Sprintf("lanes-%d", c), det); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]aovlis.Result, channels)
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			outs := make([]<-chan Outcome, batch)
			for at := 0; at < segments; at += batch {
				for c := s; c < channels; c += submitters {
					id := fmt.Sprintf("lanes-%d", c)
					for i := range outs {
						out := make(chan Outcome, 1)
						err := p.SubmitInto(id, feeds[c].acts[at+i], feeds[c].auds[at+i], out)
						if err != nil {
							t.Error(err)
							return
						}
						outs[i] = out
					}
					for _, out := range outs {
						o := <-out
						if o.Err != nil {
							t.Error(o.Err)
							return
						}
						got[c] = append(got[c], o.Result)
					}
				}
			}
		}(s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	updated := 0
	for c := range want {
		for i := range want[c] {
			if !sameResult(got[c][i], want[c][i]) {
				t.Fatalf("channel %d segment %d: pooled %+v, serial %+v", c, i, got[c][i], want[c][i])
			}
			if want[c][i].Updated {
				updated++
			}
		}
	}
	if updated == 0 {
		t.Fatal("no channel retrained; the trainers' bound would hold vacuously")
	}
	if made := core.LaneSetsMade(mcfg); made > shards {
		t.Fatalf("%d channels on %d shards made %d lane sets, want at most %d", channels, shards, made, shards)
	}
	if made := update.TrainersMade(mcfg); made > shards {
		t.Fatalf("%d channels on %d shards made %d trainers, want at most %d", channels, shards, made, shards)
	}
}

// TestTieredChannelReservesOneLane: Attach prebuilds each shard's lane set
// as wide as the detector predicts at once — one lane with the tier gate
// on, which predicts lane by lane, the whole batch without it — and a
// tiered channel's 16-segment batches never widen its sets.
func TestTieredChannelReservesOneLane(t *testing.T) {
	const shards, batch = 2, 16
	for _, tc := range []struct {
		tiered bool
		seed   int64
		lanes  int
	}{{tiered: true, seed: 4051, lanes: 1}, {tiered: false, seed: 4052, lanes: batch}} {
		// A seed of its own gives each template lists no other test uses.
		tmpl := trainTemplate(t, func(c *aovlis.Config) { c.Seed, c.Tiered = tc.seed, tc.tiered })
		mcfg := tmpl.Model().Config()
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		p := newTestPool(t, Config{Shards: shards, QueueDepth: 4 * batch, Batch: batch})
		if err := p.Attach("ch", det); err != nil {
			t.Fatal(err)
		}
		if made, width := core.LaneSetsMade(mcfg), core.LaneSetWidth(mcfg); made != shards || width != tc.lanes {
			t.Fatalf("tiered %v: Attach built %d sets of %d lanes, want %d of %d", tc.tiered, made, width, shards, tc.lanes)
		}
		acts, auds := testStream(tc.seed, 4*batch)
		outs := make([]chan Outcome, batch)
		for at := 0; at < len(acts); at += batch {
			for i := range outs {
				outs[i] = make(chan Outcome, 1)
				if err := p.SubmitInto("ch", acts[at+i], auds[at+i], outs[i]); err != nil {
					t.Fatal(err)
				}
			}
			for _, out := range outs {
				if o := <-out; o.Err != nil {
					t.Fatal(o.Err)
				}
			}
		}
		if made, width := core.LaneSetsMade(mcfg), core.LaneSetWidth(mcfg); made != shards || width != tc.lanes {
			t.Fatalf("tiered %v: after scoring, %d sets of %d lanes, want %d of %d", tc.tiered, made, width, shards, tc.lanes)
		}
	}
}
