package aovlis_test

// Checkpoint-path benchmarks (ISSUE 4, BENCH.md §5):
//
//   - BenchmarkPoolSnapshot / BenchmarkPoolRestore: full 64-channel
//     checkpoint commit latency and warm-restart latency.
//   - BenchmarkPoolThroughputUnderSnapshot: the p99 isolation criterion —
//     Observe latency distribution while a background goroutine
//     continuously checkpoints the pool. Compare its p99-µs against
//     BenchmarkPoolThroughput/shards=8/window=2/batch=1: the acceptance
//     bar is ≤ 2×.
//
// They live in the external test package next to pool_bench_test.go (and
// share its trained-template fixture) because internal/serve imports
// aovlis.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aovlis/internal/serve"
	"aovlis/internal/snapshot/manifest"
)

// benchSnapshotPool builds a warmed pool of n cloned channels.
func benchSnapshotPool(b *testing.B, channels, shards int) (*serve.DetectorPool, []string) {
	b.Helper()
	if err := poolBenchFixture(); err != nil {
		b.Fatal(err)
	}
	pool, err := serve.NewDetectorPool(serve.Config{Shards: shards, QueueDepth: 1024})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("snap-%02d", i)
		det, err := poolBench.template.Clone()
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Attach(ids[i], det); err != nil {
			b.Fatal(err)
		}
		// Fill each channel's window so snapshots carry real runtime state.
		for w := 0; w < 12; w++ {
			if _, err := pool.Observe(ids[i], poolBench.actions[w], poolBench.audience[w]); err != nil {
				b.Fatal(err)
			}
		}
	}
	return pool, ids
}

// BenchmarkPoolSnapshot measures one full checkpoint commit (quiesce +
// encode + atomic file writes + manifest) of a 64-channel pool.
func BenchmarkPoolSnapshot(b *testing.B) {
	pool, _ := benchSnapshotPool(b, 64, 8)
	defer pool.Close()
	dir := b.TempDir()
	var bytes int64
	var quiesce time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := pool.Snapshot(dir)
		if err != nil {
			b.Fatal(err)
		}
		bytes = rep.Bytes
		if rep.MaxQuiesce > quiesce {
			quiesce = rep.MaxQuiesce
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes), "bytes/snapshot")
	b.ReportMetric(float64(quiesce)/float64(time.Microsecond), "max-quiesce-µs")
}

// BenchmarkPoolRestore measures the warm-restart path: rebuilding a
// 64-channel pool (checksum verification, detector restore, attach) from a
// committed snapshot directory.
func BenchmarkPoolRestore(b *testing.B) {
	pool, _ := benchSnapshotPool(b, 64, 8)
	defer pool.Close()
	dir := b.TempDir()
	if _, err := pool.Snapshot(dir); err != nil {
		b.Fatal(err)
	}
	m, err := manifest.Read(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored, err := serve.RestorePool(dir, m, serve.Config{Shards: 8, QueueDepth: 1024})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		restored.Close()
		b.StartTimer()
	}
}

// BenchmarkPoolThroughputUnderSnapshot is BenchmarkPoolThroughput at 8
// shards with a continuous concurrent checkpoint load. Its p99-µs against
// the plain run's is the "snapshotting does not block unrelated shards"
// criterion (≤ 2×, recorded in BENCH.md §5).
func BenchmarkPoolThroughputUnderSnapshot(b *testing.B) {
	const channels = 16
	pool, ids := benchSnapshotPool(b, channels, 8)
	defer pool.Close()
	dir := b.TempDir()

	stop := make(chan struct{})
	var snapsDone atomic.Uint64
	var snapErr atomic.Value
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := pool.Snapshot(dir); err != nil {
				snapErr.Store(err)
				return
			}
			snapsDone.Add(1)
		}
	}()

	n := len(poolBench.actions)
	var next atomic.Uint64
	var failed atomic.Value
	var latMu sync.Mutex
	var latencies []time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 1<<16)
		for pb.Next() {
			i := next.Add(1)
			idx := 12 + int(i)%(n-12)
			start := time.Now()
			_, err := pool.Observe(ids[int(i)%channels], poolBench.actions[idx], poolBench.audience[idx])
			local = append(local, time.Since(start))
			if err != nil {
				failed.Store(err)
				return
			}
		}
		latMu.Lock()
		latencies = append(latencies, local...)
		latMu.Unlock()
	})
	b.StopTimer()
	close(stop)
	snapWG.Wait()
	if err, ok := failed.Load().(error); ok {
		b.Fatal(err)
	}
	if err, ok := snapErr.Load().(error); ok {
		b.Fatalf("concurrent snapshot failed: %v", err)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "segments/s")
		b.ReportMetric(float64(snapsDone.Load())/sec, "snapshots/s")
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		p := func(q float64) float64 {
			idx := int(q * float64(len(latencies)-1))
			return float64(latencies[idx]) / float64(time.Microsecond)
		}
		b.ReportMetric(p(0.50), "p50-µs")
		b.ReportMetric(p(0.99), "p99-µs")
	}
}
