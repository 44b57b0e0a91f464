package serve

// Pool observability (ISSUE 7): per-stage latency decomposition over the
// dependency-free internal/metrics registry. Every instrument is a fixed
// set of atomics created at pool construction, so the hot-path recording
// cost is a few atomic adds and a binary search over frozen bucket bounds
// — zero allocations, no locks (the 0 allocs/op claim is pinned by
// TestInstrumentedPoolSteadyStateAllocs).
//
// The stage decomposition follows a segment through the pool:
//
//	submit ──(queue_wait)──▶ dequeued ──(score_latency)──▶ outcome
//
//   - queue_wait_seconds: submission to dequeue by the shard worker — the
//     backpressure signal admission control acts on.
//   - score_latency_seconds: one inference round (a micro-batched round
//     scores a whole per-channel group in one observation; the serial path
//     records per segment).
//   - batch_occupancy: segments amortised per inference round.
//   - snapshot_quiesce_seconds: how long a checkpoint held a shard worker.

import (
	"aovlis/internal/metrics"
	"strconv"
)

// latencyBuckets spans 1µs to ~8.4s exponentially — Observe latencies sit
// at tens of µs, queue waits under overload reach seconds.
func latencyBuckets() []float64 { return metrics.ExpBuckets(1e-6, 2, 23) }

// occupancyBuckets spans batch sizes 1..256.
func occupancyBuckets() []float64 { return metrics.ExpBuckets(1, 2, 9) }

// poolMetrics is the pool's instrument set.
type poolMetrics struct {
	reg *metrics.Registry

	queueWait    *metrics.Histogram
	scoreLatency *metrics.Histogram
	occupancy    *metrics.Histogram
	quiesce      *metrics.Histogram

	accepted  *metrics.Counter
	rejected  *metrics.Counter
	dropped   *metrics.Counter
	observed  *metrics.Counter
	anomalies *metrics.Counter
	errors    *metrics.Counter
}

// newPoolMetrics registers the pool's instruments, including live gauges
// over the admission state, channel count and per-shard queue depths.
func newPoolMetrics(p *DetectorPool) *poolMetrics {
	reg := metrics.NewRegistry()
	m := &poolMetrics{
		reg: reg,
		queueWait: reg.Histogram("aovlis_pool_queue_wait_seconds",
			"Time from submission to dequeue by the shard worker.", latencyBuckets()),
		scoreLatency: reg.Histogram("aovlis_pool_score_latency_seconds",
			"Duration of one inference round (micro-batched rounds score a whole per-channel group).", latencyBuckets()),
		occupancy: reg.Histogram("aovlis_pool_batch_occupancy",
			"Segments scored per inference round.", occupancyBuckets()),
		quiesce: reg.Histogram("aovlis_pool_snapshot_quiesce_seconds",
			"Time a checkpoint encoding held a shard worker at a segment boundary.", latencyBuckets()),
		accepted: reg.Counter("aovlis_pool_accepted_total",
			"Submissions accepted into a shard queue."),
		rejected: reg.Counter("aovlis_pool_rejected_total",
			"Submissions rejected by admission control (HTTP 429 at the daemon)."),
		dropped: reg.Counter("aovlis_pool_dropped_total",
			"Submissions shed by the DropNewest overflow policy."),
		observed: reg.Counter("aovlis_pool_observed_total",
			"Segments scored successfully (including warm-ups)."),
		anomalies: reg.Counter("aovlis_pool_anomalies_total",
			"Anomaly verdicts."),
		errors: reg.Counter("aovlis_pool_errors_total",
			"Detector errors."),
	}
	reg.CounterFunc("aovlis_pool_admission_transitions_total",
		"Admission state machine transitions (raises and relaxes).",
		p.adm.transitions.Load)
	reg.GaugeFunc("aovlis_pool_admission_state",
		"Admission state: 0 normal, 1 reject.",
		func() int64 { return int64(p.adm.current()) })
	reg.GaugeFunc("aovlis_pool_channels", "Attached channels.",
		func() int64 { return int64(len(*p.chans.Load())) })
	for _, s := range p.shards {
		s := s
		reg.GaugeFuncWith("aovlis_pool_shard_queue_depth",
			metrics.Labels(map[string]string{"shard": strconv.Itoa(s.index)}),
			"Segments enqueued on this shard right now.",
			func() int64 { return int64(len(s.queue)) })
	}
	return m
}

// Metrics exposes the pool's metrics registry (served by the daemon at
// GET /metrics). The registry is live: scraping it reads the pool's
// counters in place.
func (p *DetectorPool) Metrics() *metrics.Registry { return p.m.reg }
