package serve

// Deterministic SLO load-test harness: replay a seeded flash-crowd schedule
// open-loop against an admission-controlled pool and assert the
// service-level objectives:
//
//  1. Zero accepted-segment loss: every submission the pool accepted
//     delivers exactly one outcome, and none of them is an error. Overload
//     is absorbed by admission rejection (never by dropping accepted
//     work — Dropped must stay 0 even though the pool runs DropNewest as
//     a backstop).
//  2. Bounded p99: submit→outcome latency stays under an in-test ceiling;
//     scripts/smoke.sh slo compares the measured p99 against the recorded
//     BENCH.md §7 baseline for regression gating.
//  3. Reproducibility: the OFFERED stream is bit-identical for the fixed
//     seed (schedule hash equality). Rejection points depend on real queue
//     depths and are deliberately not part of the claim — see BENCH.md §7.
//
// The service time is pinned by sleeping inside a wrapper detector (2ms),
// which makes the overload geometry machine-independent: the flash crowd's
// 3000/s peak is three times the pool's capacity, so the harness
// deterministically reaches reject, and the recovery path drains back to
// normal.

import (
	"sort"
	"sync"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/serve/loadgen"
)

// slowDetector wraps a real detector and pins its service time, so the
// harness's queueing behaviour does not depend on host speed.
type slowDetector struct {
	det     *aovlis.Detector
	service time.Duration
}

func (s *slowDetector) Observe(action, audience []float64) (aovlis.Result, error) {
	time.Sleep(s.service)
	return s.det.Observe(action, audience)
}

// sloLoadConfig is the recorded harness profile: 300/s steady with a
// 3000/s flash crowd in [1s,2s). With 2 shards at 500/s per shard, the
// spike oversubscribes the pool 3×.
func sloLoadConfig() loadgen.Config {
	return loadgen.Config{
		Shape: loadgen.FlashCrowd, Seed: 42,
		Duration: 3 * time.Second,
		BaseRate: 300, PeakRate: 3000,
		SpikeStart: time.Second, SpikeDur: time.Second,
		Channels: 4, ActionDim: 16, AudienceDim: 6,
	}
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func TestSLOFlashCrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("SLO harness skipped in -short mode")
	}
	lcfg := sloLoadConfig()
	sched, err := loadgen.New(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reproducibility witness: an independent rebuild must be bit-identical.
	again, err := loadgen.New(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	hash := sched.Hash()
	if again.Hash() != hash {
		t.Fatal("schedule not reproducible for fixed seed")
	}

	pool := newTestPool(t, Config{
		Shards: 2, QueueDepth: 64, Policy: DropNewest,
		Admission: DefaultAdmissionConfig(),
	})
	tmpl := trainTemplate(t)
	for i := 0; i < lcfg.Channels; i++ {
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		sd := &slowDetector{det: det, service: 2 * time.Millisecond}
		if err := pool.Attach(loadgen.ChannelID(i), sd); err != nil {
			t.Fatal(err)
		}
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		scoreErrs int
		wg        sync.WaitGroup
		accepted  int
		rejected  int
	)
	sched.Replay(func(a loadgen.Arrival) {
		start := time.Now()
		out, err := pool.Submit(a.Channel, a.Action, a.Audience)
		if err != nil {
			rejected++
			return
		}
		accepted++
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := <-out
			lat := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			latencies = append(latencies, lat)
			if o.Err != nil {
				scoreErrs++
			}
		}()
	})
	wg.Wait()

	// SLO 1: zero accepted-segment loss, zero scoring errors, zero drops.
	if len(latencies) != accepted {
		t.Fatalf("accepted %d submissions, received %d outcomes — accepted segments lost", accepted, len(latencies))
	}
	if scoreErrs != 0 {
		t.Fatalf("%d accepted segments failed to score", scoreErrs)
	}
	ps := pool.PoolStats()
	if ps.Dropped != 0 {
		t.Fatalf("%d accepted segments dropped — admission failed to protect the queue", ps.Dropped)
	}
	if ps.Observed != uint64(accepted) {
		t.Fatalf("pool observed %d, accepted %d", ps.Observed, accepted)
	}
	if ps.Rejected != uint64(rejected) {
		t.Fatalf("pool rejected %d, harness saw %d", ps.Rejected, rejected)
	}

	// The flash crowd must actually have pushed the pool through the whole
	// admission cycle: normal → reject (some submissions refused) → normal.
	if rejected == 0 {
		t.Fatal("overload never reached the reject watermark — harness is not stressing admission")
	}
	waitFor(t, func() bool { return pool.AdmissionState() == AdmitNormal })
	if n := pool.adm.transitions.Load(); n < 2 || n%2 != 0 {
		t.Fatalf("%d admission transitions, want whole normal → reject → normal cycles", n)
	}

	// SLO 2: p99 submit→outcome latency. The queue bound gives a hard
	// ceiling: 64 slots × 2ms service ≈ 128ms worst case per shard; 500ms
	// leaves generous slack for scheduler noise. The precise measured value
	// is the BENCH.md §7 baseline, gated by scripts/smoke.sh slo.
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := percentile(latencies, 0.50)
	p99 := percentile(latencies, 0.99)
	if p99 > 500*time.Millisecond {
		t.Fatalf("p99 latency %v exceeds in-test ceiling 500ms", p99)
	}

	// Machine-readable result for scripts/smoke.sh slo (keep this format in
	// sync with the fields it reads and slo.p99_us in scripts/baselines.txt).
	t.Logf("SLO-RESULT profile=%s seed=%d offered=%d accepted=%d rejected=%d dropped=0 lost=0 p50_us=%d p99_us=%d hash=%s",
		lcfg.Shape, lcfg.Seed, len(sched.Arrivals), accepted, rejected,
		p50.Microseconds(), p99.Microseconds(), hash[:16])
}
