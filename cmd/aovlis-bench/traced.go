package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aovlis/internal/synth"
)

// sharedLayers times what does not depend on the workload: each layer's
// public functions, in-process, on the seed's model (saved without and with
// EnableUpdate) and on channel 0's INF segments, which every workload
// streams. An invocation measures them once, before any server runs, and
// every workload's traced section carries the same figures.
func sharedLayers(seed int64, tmp string) (metricSet, error) {
	ds, err := buildDataset(seed)
	if err != nil {
		return nil, err
	}
	var models [2][]byte // plain, updating
	for i := range models {
		path := filepath.Join(tmp, fmt.Sprintf("layers-model-%d.bin", i))
		if err := trainModel(ds, i == 1, seed, path); err != nil {
			return nil, err
		}
		if models[i], err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	act, aud, lines, err := segments(ds.Pipeline, synth.INF(), streamSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	act, aud, lines = act[:1200], aud[:1200], lines[:1200]
	det, err := loadDetector(models[0], false)
	if err != nil {
		return nil, err
	}
	results, err := det.DetectSeries(act[:512], aud[:512])
	if err != nil {
		return nil, err
	}

	m := metricSet{}
	kernelLayers(m, seed)
	if err := modelLayers(m, act, aud, models[0], models[1]); err != nil {
		return nil, err
	}
	if err := wireLayers(m, lines, results); err != nil {
		return nil, err
	}
	if err := durabilityLayers(m, act[:256], aud[:256], tmp); err != nil {
		return nil, err
	}
	if err := liveLayers(m, lines[0], results[len(results)-1]); err != nil {
		return nil, err
	}
	return m, clusterLayers(m)
}

// measureTraced is the -trace 1 run: the per-layer metrics of one workload.
// Beside the shared layer timings it has two parts of its own. A
// real-process run gives what only the daemons know (scraped from /metrics),
// the demoted capacity, CPU cost and latency tails, generator health and the
// idle round trip. Then, with the servers gone, the workload's in-process
// pipeline is driven at capacity, and replayed with a span on every layer
// boundary and reconciled with the round trip.
func measureTraced(ctx context.Context, e env, w workload, seed int64, seconds int, shared metricSet, res *runResult) error {
	m := metricSet{}
	for name, v := range shared {
		m[name] = v
	}
	p, err := prepare(ctx, e, w, seed, seconds, 1)
	if err != nil {
		return err
	}
	model, rttUs, err := tracedProcesses(p, m, res)
	p.f.teardown()
	if err != nil {
		return err
	}
	capacity, err := inprocCapacity(p.in, model, filepath.Join(e.tmp, "inproc"))
	if err != nil {
		return err
	}
	m.set(perLayer, "serve.inproc_capacity_seg_s", capacity)

	spans, overhead, err := tracedReplay(p.in, model, e.tmp)
	if err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(e.traceDir, "trace_"+w.name+".json"), spans); err != nil {
		return err
	}
	// The reconciliation holds by construction: the blocking-path spans
	// plus the residue are the idle round trip, so the layer shares and the
	// residue share add up to 1. The residue is what the real daemon spends
	// that no layer called from here accounts for.
	self := medianSelfUs(spans)
	var explained float64
	for name := spDecode; name < spCount; name++ {
		us := self[spanNames[name]] // 0 for a layer the workload does not run
		m.set(perLayer, "trace."+strings.ReplaceAll(spanNames[name], ".", "_")+"_share", us/rttUs)
		explained += us
	}
	m.set(perLayer, "trace.residue_us", rttUs-explained)
	m.set(perLayer, "trace.residue_share", (rttUs-explained)/rttUs)
	m.set(perLayer, "trace.overhead_share", overhead)
	m.set(perLayer, "serve.submit_outcome_us", submitOutcomeUs(spans))

	res.Metrics = m
	return m.complete(perLayer)
}

// submitOutcomeUs is the median time from SubmitInto to the outcome on an
// idle pool: each segment's await end minus its submit start.
func submitOutcomeUs(spans []span) float64 {
	type key struct{ ch, seq int }
	starts := map[key]int64{}
	for _, s := range spans {
		if s.Name == spanNames[spSubmit] {
			starts[key{s.Channel, s.Seq}] = s.StartNs
		}
	}
	var us []float64
	for _, s := range spans {
		if s.Name == spanNames[spAwait] {
			if start, ok := starts[key{s.Channel, s.Seq}]; ok {
				us = append(us, float64(s.EndNs-start)/1e3)
			}
		}
	}
	return median(us)
}

// tracedProcesses runs the real-process part and returns the fixture's
// model bytes and the idle round trip in µs.
func tracedProcesses(p *prepared, m metricSet, res *runResult) (model []byte, rttUs float64, err error) {
	f, in := p.f, p.in
	gen0, wall0 := selfCPU(), time.Now()
	pr, err := f.paced(in)
	if err != nil {
		return nil, 0, err
	}
	sr, err := f.saturate(in)
	if err != nil {
		return nil, 0, err
	}
	gen := selfCPU() - gen0
	wall := time.Since(wall0)
	v := f.check(in, p.want)
	res.fill(p, v, len(pr.latencyMs))

	m.set(perLayer, "client.capacity_seg_s", sr.segPerSec)
	m.set(perLayer, "server.cpu_ms_per_kseg", 1000*sr.cpuMsPerSeg)
	m.set(perLayer, "client.latency_p50_ms", pr.sliceQuantile(0.50))
	m.set(perLayer, "client.latency_p90_ms", pr.sliceQuantile(0.90))
	m.set(perLayer, "client.latency_p99_ms", quantile(pr.latencyMs, 0.99))
	m.set(perLayer, "client.latency_p999_ms", quantile(pr.latencyMs, 0.999))
	m.set(perLayer, "loadgen.late_p99_ms", quantile(pr.lateMs, 0.99))
	m.set(perLayer, "loadgen.cpu_share", gen.Seconds()/(wall.Seconds()*float64(runtime.NumCPU())))

	// Counts that must repeat exactly for one seed come from the verdicts
	// themselves (they equal the reference, or the run has failed).
	var decided, exact, skipped, fired, shed float64
	for c, r := range f.runs {
		for k, want := range p.want[c] {
			d := &r.dec[k]
			if want.Updated {
				fired++
			}
			if d.Warmup {
				continue
			}
			decided++
			if d.Exact {
				exact++
			}
			if d.Path == "tier-skip" {
				skipped++
				if !in.w.fastTiered() {
					shed++ // only admission's shed mode tiers an exact daemon
				}
			}
		}
	}
	m.set(perLayer, "aovlis.inproc_seg_s", p.inprocSegS)
	m.set(perLayer, "ados.exact_share", exact/decided)
	m.set(perLayer, "ados.tier_skip_share", skipped/decided)
	m.set(perLayer, "update.fired", fired)
	m.set(perLayer, "serve.shed_scored", shed)

	nodes := scrape{}
	for _, n := range f.nodes {
		s, err := scrapeURL(n.url + "/metrics")
		if err != nil {
			return nil, 0, err
		}
		nodes.merge(s)
	}
	ksegs := nodes["aovlis_pool_observed_total"] / 1000
	m.set(perLayer, "serve.queue_wait_mean_us", nodes.histMean("aovlis_pool_queue_wait_seconds")*1e6)
	m.set(perLayer, "serve.score_mean_us", nodes.histMean("aovlis_pool_score_latency_seconds")*1e6)
	m.set(perLayer, "serve.batch_occupancy_mean", nodes.histMean("aovlis_pool_batch_occupancy"))
	m.set(perLayer, "serve.rejected", nodes["aovlis_pool_rejected_total"])
	m.set(perLayer, "wal.fsyncs_per_kseg", nodes["aovlis_wal_fsync_seconds_count"]/ksegs)
	m.set(perLayer, "ledger.commits_per_kseg", nodes["aovlis_ledger_commits_total"]/ksegs)
	walBytes, err := dirBytes(filepath.Join(f.dir, "wal"))
	if err != nil {
		return nil, 0, err
	}
	m.set(perLayer, "wal.bytes_per_seg", walBytes/(ksegs*1000))

	// One segment in flight on an idle NDJSON stream, straight at a daemon.
	direct, err := idleRTT(f, f.nodes[0], in)
	if err != nil {
		return nil, 0, err
	}
	m.set(perLayer, "aovlisd.rtt_idle_us", direct)
	// The router hop is the same probe through aovlisr minus the direct one;
	// the router's own figures are scraped after it. Off the fleet mix no
	// router runs and all three are 0.
	var hop, forward, skew float64
	if in.w.mix == fleet {
		routed, err := idleRTT(f, f.entry, in)
		if err != nil {
			return nil, 0, err
		}
		rs, err := scrapeURL(f.entry.url + "/metrics")
		if err != nil {
			return nil, 0, err
		}
		var most, sum float64
		for i := range f.nodes {
			n := rs[fmt.Sprintf(`aovlisr_node_segments_total{node="n%d"}`, i)]
			most, sum = max(most, n), sum+n
		}
		hop, forward = routed-direct, rs.histMean("aovlisr_forward_latency_seconds")*1e6
		skew = most / (sum / float64(len(f.nodes)))
	}
	m.set(perLayer, "cluster.hop_us", hop)
	m.set(perLayer, "cluster.forward_mean_us", forward)
	m.set(perLayer, "cluster.node_skew", skew)

	model, err = os.ReadFile(f.model)
	return model, direct, err
}

// idleRTT opens a fresh NDJSON channel at server, warms it up, and returns
// the median round trip of one segment with nothing else in flight, in µs.
func idleRTT(f *fixture, server *proc, in *inputs) (float64, error) {
	const trips = 400
	c, err := dialNDJSON(f.client, server.url+"/channels/rtt-"+server.name+"/observe")
	if err != nil {
		return 0, err
	}
	defer c.close()
	var us []float64
	for k := 0; k < seqLen+trips; k++ {
		t := time.Now()
		if err := c.send(in.lines[0][in.seq[0][k]]); err != nil {
			return 0, err
		}
		if err := c.flush(); err != nil {
			return 0, err
		}
		if _, err := c.recv(); err != nil {
			return 0, f.cause(err)
		}
		if k >= seqLen {
			us = append(us, float64(time.Since(t))/1e3)
		}
	}
	return median(us), nil
}

// dirBytes is the total size of the regular files under dir (0 if it does
// not exist: only a durable workload has a journal).
func dirBytes(dir string) (float64, error) {
	var total float64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += float64(info.Size())
		}
		return nil
	})
	if os.IsNotExist(err) {
		return 0, nil
	}
	return total, err
}
