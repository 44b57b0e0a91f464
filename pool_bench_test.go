package aovlis_test

// Pool-throughput benchmark for the multi-channel serving layer
// (internal/serve). It lives in the external test package because
// internal/serve imports aovlis: an in-package benchmark (bench_test.go)
// would form an import cycle.
//
// Run it with
//
//	go test -run '^$' -bench BenchmarkPoolThroughput -benchtime 2s .
//
// and read four metrics: segments/s (throughput), p50-µs / p99-µs — the
// per-segment Submit→outcome latency distribution seen by the producers
// (queue wait + detection), which the mean ns/op hides — and occupancy,
// the mean number of segments each shard wake-up scored in one batched
// inference pass. One trained detector is cloned over 16 channels; each
// channel has one producer streaming it with a small window of
// asynchronous in-flight submissions (the steady state of a live NDJSON
// feed), at 1, 4, 8 and 16 shards with micro-batching on.
//
// BenchmarkPoolThroughputSerial is the same workload submitted strictly
// synchronously to a batching-off pool — the PR 4 configuration — so the
// micro-batching delta stays measurable over time.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/dataset"
	"aovlis/internal/serve"
	"aovlis/internal/synth"
)

// poolBench caches the expensive fixture (dataset + trained template)
// across the shard-count sub-benchmarks.
var poolBench struct {
	once     sync.Once
	err      error
	template *aovlis.Detector
	actions  [][]float64
	audience [][]float64
}

func poolBenchFixture() error {
	poolBench.once.Do(func() {
		dcfg := dataset.DefaultConfig(synth.INF())
		dcfg.TrainSec, dcfg.TestSec = 240, 240
		dcfg.Classes = 48
		ds, err := dataset.Build(dcfg)
		if err != nil {
			poolBench.err = err
			return
		}
		cfg := aovlis.DefaultConfig(48, dcfg.Audience.Dim())
		cfg.Epochs = 4
		det, err := aovlis.Train(ds.TrainActions, ds.TrainAudience, cfg)
		if err != nil {
			poolBench.err = err
			return
		}
		poolBench.template = det
		poolBench.actions = ds.TestActions
		poolBench.audience = ds.TestAudience
	})
	return poolBench.err
}

// BenchmarkPoolThroughput measures end-to-end pool throughput
// (segments/sec), producer-visible latency quantiles and batch occupancy
// against shard count, with micro-batching on.
func BenchmarkPoolThroughput(b *testing.B) {
	for _, shards := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchmarkPoolThroughput(b, serve.Config{
				Shards: shards, QueueDepth: 1024, Policy: serve.Block, Batch: 32,
			}, 2)
		})
	}
}

// BenchmarkPoolThroughputSerial is the batching-off baseline: synchronous
// closed-loop producers against a serial pool (the PR 4 configuration).
func BenchmarkPoolThroughputSerial(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchmarkPoolThroughput(b, serve.Config{
				Shards: shards, QueueDepth: 1024, Policy: serve.Block,
			}, 1)
		})
	}
}

// benchmarkPoolThroughput drives 16 channels, one producer per channel,
// each keeping up to `window` submissions in flight (window 1 = the
// synchronous Observe loop).
func benchmarkPoolThroughput(b *testing.B, cfg serve.Config, window int) {
	if err := poolBenchFixture(); err != nil {
		b.Fatal(err)
	}
	const channels = 16
	pool, err := serve.NewDetectorPool(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	ids := make([]string, channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%02d", i)
		det, err := poolBench.template.Clone()
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Attach(ids[i], det); err != nil {
			b.Fatal(err)
		}
		// Warm each channel past the q-segment window so the benchmark
		// measures scored segments only.
		for w := 0; w < 9; w++ {
			if _, err := pool.Observe(ids[i], poolBench.actions[w], poolBench.audience[w]); err != nil {
				b.Fatal(err)
			}
		}
	}

	n := len(poolBench.actions)
	var producerIdx atomic.Uint64
	var failed atomic.Value
	// Per-producer latency samples, merged after the run; preallocated and
	// appended per goroutine so sampling costs one time.Since per segment.
	var latMu sync.Mutex
	var latencies []time.Duration
	// One producer per channel: RunParallel spawns parallelism×GOMAXPROCS
	// goroutines, so round up to at least `channels` and park the excess —
	// an early-returning goroutine consumes no iterations, so the work
	// redistributes to the per-channel producers regardless of GOMAXPROCS.
	par := (channels + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	b.SetParallelism(par)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ci := int(producerIdx.Add(1) - 1)
		if ci >= channels {
			return // excess goroutine from the parallelism round-up
		}
		id := ids[ci]
		// Fixed ring of recycled outcome channels (SubmitInto): the
		// producer itself must not allocate per segment, or its garbage
		// dominates the latency quantiles on small hosts.
		outs := make([]chan serve.Outcome, window)
		starts := make([]time.Time, window)
		for i := range outs {
			outs[i] = make(chan serve.Outcome, 1)
		}
		local := make([]time.Duration, 0, 1<<16)
		inflight := 0 // slots [head-inflight, head) are pending
		head := 0
		collect := func(slot int) bool {
			o := <-outs[slot]
			local = append(local, time.Since(starts[slot]))
			if o.Err != nil {
				failed.Store(o.Err)
				return false
			}
			return true
		}
		step := 0
		for pb.Next() {
			idx := 9 + (ci*977+step)%(n-9)
			step++
			if inflight == window {
				if !collect((head + window - inflight) % window) {
					break
				}
				inflight--
			}
			starts[head] = time.Now()
			if err := pool.SubmitInto(id, poolBench.actions[idx], poolBench.audience[idx], outs[head]); err != nil {
				failed.Store(err)
				break
			}
			head = (head + 1) % window
			inflight++
		}
		for ; inflight > 0; inflight-- {
			collect((head + window - inflight) % window)
		}
		latMu.Lock()
		latencies = append(latencies, local...)
		latMu.Unlock()
	})
	b.StopTimer()
	if err, ok := failed.Load().(error); ok {
		b.Fatal(err)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "segments/s")
	}
	if st := pool.PoolStats(); st.BatchOccupancy > 0 {
		b.ReportMetric(st.BatchOccupancy, "occupancy")
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

// BenchmarkPoolAttach measures what one more channel costs a daemon: each
// iteration clones the template onto 256 fresh channels of a new pool and
// reports the time per attach (clone + Attach) and the heap each attached
// channel retains once the garbage is collected — the benchstat-able twin of
// TestCloneFootprint's gate.
func BenchmarkPoolAttach(b *testing.B) {
	if err := poolBenchFixture(); err != nil {
		b.Fatal(err)
	}
	const channels = 256
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var retained float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pool, err := serve.NewDetectorPool(serve.Config{Shards: 4, QueueDepth: 64, Policy: serve.Block, Batch: 32})
		if err != nil {
			b.Fatal(err)
		}
		before := heap()
		b.StartTimer()
		for c := 0; c < channels; c++ {
			det, err := poolBench.template.Clone()
			if err != nil {
				b.Fatal(err)
			}
			if err := pool.Attach(fmt.Sprintf("ch-%04d", c), det); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		retained += float64(heap()) - float64(before)
		pool.Close()
		b.StartTimer()
	}
	b.ReportMetric(retained/float64(b.N)/channels, "B/channel")
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/channels, "µs/attach")
}
