package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"aovlis"
)

// TestShardArenasAreIsolated drives many channels concurrently through a
// multi-shard pool and compares every channel's scores bitwise against a
// reference detector driven serially. Each detector owns its model's plan
// buffers (core.InferPlan's lane states and scratch); the pool confines each
// detector to one shard worker, so no two shards may ever touch the same
// plan buffers. If that confinement broke, concurrently reused buffers would
// corrupt the forward passes (caught here as score divergence) and the
// unsynchronised accesses would trip the race detector (run this under
// -race; CI does).
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
