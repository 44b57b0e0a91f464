package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aovlis"
	"aovlis/internal/ados"
	"aovlis/internal/cluster"
	"aovlis/internal/core"
	"aovlis/internal/ledger"
	"aovlis/internal/mat"
	"aovlis/internal/nn"
	"aovlis/internal/serve"
	"aovlis/internal/stream/live"
	"aovlis/internal/update"
	"aovlis/internal/wal"
)

// Layers are measured from outside: by timing calls into their public
// functions. Every figure is the median over a few batches of the mean
// time of one call in the batch, so a stray stall moves one batch, not the
// result.

// perOp runs fn reps×n times and returns the median batch mean in ns.
func perOp(reps, n int, fn func(i int)) float64 {
	means := make([]float64, reps)
	for r := range means {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(r*n + i)
		}
		means[r] = float64(time.Since(t)) / float64(n)
	}
	return median(means)
}

func randVec(rng *rand.Rand, n int, scale float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * scale
	}
	return v
}

// kernelLayers times the mat and nn kernels at the CLSTM's hot shapes:
// context 96 → packed gates 128 for the GEMM and the fused cell, n = 48 for
// the gate kernels.
func kernelLayers(m metricSet, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const ctx, gates, hidden, lanes = 96, 128, 32, 8

	wt := mat.FromSlice(gates, ctx, randVec(rng, gates*ctx, 0.1))
	w := mat.Transpose(wt)
	bias := randVec(rng, gates, 0.1)
	x := randVec(rng, ctx, 1)
	dst := make([]float64, gates)
	m.set(perLayer, "mat.fwdgemm_ns", perOp(9, 20000, func(int) {
		mat.FwdGEMMBiasInto(dst, x, 1, w, wt, bias)
	}))

	const n = 48
	pre := randVec(rng, 4*n, 2)
	cPrev, h, cNext, scratch := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, 4*n)
	m.set(perLayer, "mat.lstmgates_exact_ns", perOp(9, 5000, func(int) {
		copy(scratch, pre)
		mat.LSTMGatesInto(h, cNext, scratch, cPrev)
	}))
	m.set(perLayer, "mat.lstmgates_fast_ns", perOp(9, 20000, func(int) {
		copy(scratch, pre)
		mat.LSTMGatesFastInto(h, cNext, scratch, cPrev)
	}))

	ps := nn.NewParamSet()
	fc := nn.NewLSTMCell(ps, "bench", ctx, hidden, rng).Pack(ps)
	h1, c1, pre1, cp1 := make([]float64, hidden), make([]float64, hidden), make([]float64, gates), make([]float64, hidden)
	m.set(perLayer, "nn.fusedcell_step_ns", perOp(9, 10000, func(int) {
		fc.StepInto(h1, c1, pre1, x, cp1)
	}))
	hB, cB, preB := mat.New(lanes, hidden), mat.New(lanes, hidden), mat.New(lanes, gates)
	ctxB, cpB := mat.FromSlice(lanes, ctx, randVec(rng, lanes*ctx, 1)), mat.New(lanes, hidden)
	m.set(perLayer, "nn.fusedcell_stepbatch_ns_per_lane", perOp(9, 2000, func(int) {
		fc.StepBatch(hB, cB, preB, ctxB, cpB)
	})/lanes)
}

// modelLayers times core, ados, aovlis and update on the segment series act,
// aud. plain and updating are the same trained weights saved without and
// with EnableUpdate.
func modelLayers(m metricSet, act, aud [][]float64, plain, updating []byte) error {
	const lanes = 8
	samples, err := core.BuildSamples(act, aud, seqLen)
	if err != nil {
		return err
	}
	det, err := loadDetector(plain, false)
	if err != nil {
		return err
	}
	model := det.Model()
	d1, d2 := det.Dims()
	fhat, ahat := make([]float64, d1), make([]float64, d2)
	var perr error
	predict := func(i int) {
		if err := model.PredictInto(&samples[i%len(samples)], fhat, ahat); err != nil {
			perr = err
		}
	}
	steady := perOp(9, 500, predict)
	m.set(perLayer, "core.predict_us", steady/1e3)

	fhats, ahats := make([][]float64, lanes), make([][]float64, lanes)
	for i := range fhats {
		fhats[i], ahats[i] = make([]float64, d1), make([]float64, d2)
	}
	m.set(perLayer, "core.predict_batch8_us_per_lane", perOp(9, 100, func(i int) {
		at := (i * lanes) % (len(samples) - lanes)
		if err := model.PredictBatchInto(samples[at:at+lanes], fhats, ahats); err != nil {
			perr = err
		}
	})/lanes/1e3)

	// The first predict after a parameter-version bump repacks the
	// inference plan; its cost over a steady predict is what every model
	// update charges the read path.
	bumped := make([]float64, 41)
	for i := range bumped {
		model.Params().BumpVersion()
		t := time.Now()
		predict(i)
		bumped[i] = float64(time.Since(t))
	}
	m.set(perLayer, "core.plan_repack_us", (median(bumped)-steady)/1e3)

	trainee := model.Clone()
	m.set(perLayer, "core.train_step_us", perOp(5, 60, func(i int) {
		if _, err := trainee.TrainStep(&samples[i%len(samples)]); err != nil {
			perr = err
		}
	})/1e3)

	// ados.Decide on real predictions: the filter's cost depends on how
	// often its bounds decide, so the inputs must be the stream's own.
	type pred struct{ f, a []float64 }
	preds := make([]pred, len(samples))
	for i := range samples {
		preds[i] = pred{make([]float64, d1), make([]float64, d2)}
		if err := model.PredictInto(&samples[i], preds[i].f, preds[i].a); err != nil {
			return err
		}
	}
	filter, err := ados.NewFilter(ados.DefaultConfig(det.Tau(), aovlis.DefaultConfig(d1, d2).Omega))
	if err != nil {
		return err
	}
	m.set(perLayer, "ados.decide_us", perOp(9, 1000, func(i int) {
		s := &samples[i%len(samples)]
		if _, err := filter.Decide(s.ActionTarget, preds[i%len(preds)].f, s.AudienceTarget, preds[i%len(preds)].a); err != nil {
			perr = err
		}
	})/1e3)

	// Detector.Observe in each scoring mode, on a fresh detector each.
	observe := func(model []byte, fast, tiered bool, reps, n int) (float64, *aovlis.Detector, error) {
		d, err := loadDetector(model, false)
		if err != nil {
			return 0, nil, err
		}
		if err := d.SetScoringMode(fast, tiered); err != nil {
			return 0, nil, err
		}
		ns := perOp(reps, n, func(i int) {
			if _, err := d.Observe(act[i%len(act)], aud[i%len(aud)]); err != nil {
				perr = err
			}
		})
		return ns / 1e3, d, nil
	}
	us, warmed, err := observe(plain, false, false, 9, 1000)
	if err != nil {
		return err
	}
	m.set(perLayer, "aovlis.observe_exact_us", us)
	if us, _, err = observe(plain, true, false, 9, 1000); err != nil {
		return err
	}
	m.set(perLayer, "aovlis.observe_fastmath_us", us)
	if us, _, err = observe(plain, true, true, 9, 1000); err != nil {
		return err
	}
	m.set(perLayer, "aovlis.observe_tiered_us", us)
	// Updater on, no retrain fired: the first drift check (at 300 buffered
	// segments) finds an empty history and cannot fire, and 250 calls stop
	// short of it anyway.
	if us, _, err = observe(updating, false, false, 1, 250); err != nil {
		return err
	}
	m.set(perLayer, "aovlis.observe_update_us", us)

	batchDet, err := loadDetector(plain, false)
	if err != nil {
		return err
	}
	results := make([]aovlis.Result, lanes)
	m.set(perLayer, "aovlis.observebatch8_us_per_seg", perOp(9, 120, func(i int) {
		at := (i * lanes) % (len(act) - lanes)
		if _, err := batchDet.ObserveBatch(act[at:at+lanes], aud[at:at+lanes], results); err != nil {
			perr = err
		}
	})/lanes/1e3)

	// State size and time to snapshot one warmed detector.
	var snap bytes.Buffer
	m.set(perLayer, "aovlis.snapshot_ms", perOp(5, 1, func(int) {
		snap.Reset()
		if err := warmed.Snapshot(&snap); err != nil {
			perr = err
		}
	})/1e6)
	m.set(perLayer, "aovlis.snapshot_bytes", float64(snap.Len()))

	// update.Updater alone: 250 buffered segments, then one forced retrain
	// (threshold 1 makes the first drift check fire) on the paper's 300
	// segment buffer and 5 epochs.
	ucfg := update.DefaultConfig()
	ucfg.DriftThreshold = 1
	upd, err := update.New(model.Clone(), ucfg)
	if err != nil {
		return err
	}
	var fired bool
	feed := func(i int) {
		res, err := upd.Observe(samples[i%len(samples)], 0)
		if err != nil {
			perr = err
		}
		fired = fired || res.Updated
	}
	m.set(perLayer, "update.observe_us", perOp(1, ucfg.MaxBuffer-1, feed)/1e3)
	m.set(perLayer, "update.retrain_ms", perOp(1, 1, func(int) { feed(ucfg.MaxBuffer - 1) })/1e6)
	if perr == nil && !fired {
		perr = fmt.Errorf("update.retrain_ms: the forced retrain did not fire")
	}
	return perr
}

// wireLayers times encoding/json on the observation and decision shapes
// every plane shares: lines are observations, results the verdicts on them.
func wireLayers(m metricSet, lines [][]byte, results []aovlis.Result) error {
	var bytesIn float64
	for _, l := range lines {
		bytesIn += float64(len(l))
	}
	m.set(perLayer, "wire.obs_bytes", bytesIn/float64(len(lines)))
	var derr error
	m.set(perLayer, "wire.obs_decode_us", perOp(9, 500, func(i int) {
		var obs live.Observation
		if err := json.Unmarshal(lines[i%len(lines)], &obs); err != nil {
			derr = err
		}
	})/1e3)
	decs := make([]live.Decision, len(results))
	for k, r := range results {
		decs[k] = decisionOf(channelName(0), uint64(k), r)
	}
	var bytesOut float64
	m.set(perLayer, "wire.decision_encode_us", perOp(9, 2000, func(i int) {
		b, err := json.Marshal(&decs[i%len(decs)])
		if err != nil {
			derr = err
		}
		bytesOut = float64(len(b))
	})/1e3)
	m.set(perLayer, "wire.decision_bytes", bytesOut)
	return derr
}

func decisionOf(channel string, seq uint64, r aovlis.Result) live.Decision {
	return live.Decision{Channel: channel, Seq: seq, Warmup: r.Warmup, Anomaly: r.Anomaly,
		Score: r.Score, Exact: r.Exact, Path: r.Path}
}

// durabilityLayers times wal and ledger on the run's own temp directory,
// journalling the segments act, aud.
func durabilityLayers(m metricSet, act, aud [][]float64, dir string) error {
	j, err := wal.Open(filepath.Join(dir, "layer-wal"), wal.Options{})
	if err != nil {
		return err
	}
	var aerr error
	var seq uint64
	m.set(perLayer, "wal.append_fsync_us", perOp(5, 40, func(i int) {
		seq++
		if err := j.Append("solo", seq, act[i%len(act)], aud[i%len(aud)]); err != nil {
			aerr = err
		}
	})/1e3)
	// Eight concurrent appenders share group-commit fsyncs: wall time over
	// appends is the amortised cost of one.
	const writers, each = 8, 50
	werrs := make([]error, writers)
	m.set(perLayer, "wal.append_cohort8_us", perOp(3, 1, func(round int) {
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if err := j.Append(fmt.Sprintf("w%d", g), uint64(round*each+i+1), act[i%len(act)], aud[i%len(aud)]); err != nil {
						werrs[g] = err
					}
				}
			}(g)
		}
		wg.Wait()
	})/(writers*each)/1e3)
	if err := errors.Join(werrs...); err != nil {
		aerr = err
	}
	if err := j.Close(); err != nil {
		return err
	}

	led, err := ledger.Open(filepath.Join(dir, "layer-ledger"), ledger.Options{})
	if err != nil {
		return err
	}
	var appends, commits []float64
	for i := 0; i < 20*ledger.DefaultBatchSize; i++ {
		t := time.Now()
		_, err := led.Append(ledger.Entry{Channel: "solo", ChannelSeq: uint64(i + 1), UnixNanos: t.UnixNano(), Score: 0.5, Path: "exact"})
		if err != nil {
			aerr = err
		}
		d := float64(time.Since(t))
		if (i+1)%ledger.DefaultBatchSize == 0 {
			commits = append(commits, d/1e6) // this append committed a batch
		} else {
			appends = append(appends, d/1e3)
		}
	}
	m.set(perLayer, "ledger.append_us", median(appends))
	m.set(perLayer, "ledger.commit_ms", median(commits))
	if err := led.Close(); err != nil {
		return err
	}
	return aerr
}

// liveLayers times one WebSocket message round trip over a loopback pair
// and counts the framing bytes a segment costs.
func liveLayers(m metricSet, obs []byte, result aovlis.Result) error {
	dec, err := json.Marshal(decisionOf(channelName(0), 1, result))
	if err != nil {
		return err
	}
	masked := live.Frame{Fin: true, Op: live.OpText, Masked: true, Payload: obs}.Append(nil)
	plain := live.Frame{Fin: true, Op: live.OpText, Payload: dec}.Append(nil)
	m.set(perLayer, "live.frame_overhead_bytes", float64(len(masked)-len(obs)+len(plain)-len(dec)))

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := live.Upgrade(w, r, nil)
		if err != nil {
			return
		}
		defer c.Close()
		for {
			if _, _, err := c.ReadMessage(); err != nil {
				return
			}
			if err := c.WriteMessage(live.OpText, dec); err != nil {
				return
			}
		}
	})}
	go srv.Serve(l)
	defer srv.Close()
	c, _, err := live.Dial("http://"+l.Addr().String()+"/", nil)
	if err != nil {
		return err
	}
	defer c.Close()
	var rerr error
	m.set(perLayer, "live.ws_roundtrip_us", perOp(9, 300, func(int) {
		if err := c.WriteMessage(live.OpText, obs); err != nil {
			rerr = err
		}
		if _, _, err := c.ReadMessage(); err != nil {
			rerr = err
		}
	})/1e3)
	return rerr
}

// clusterLayers times ring placement.
func clusterLayers(m metricSet) error {
	ring, err := cluster.NewRing([]string{"n0", "n1"}, cluster.DefaultReplicas, cluster.DefaultLoadFactor)
	if err != nil {
		return err
	}
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = channelName(i)
	}
	var sink string
	m.set(perLayer, "cluster.owner_lookup_ns", perOp(9, 20000, func(i int) { sink = ring.Owner(ids[i%len(ids)]) }))
	_ = sink
	return nil
}

// fanoutSink is the daemon's verdict fan-out: ledger first, then the watch
// hub.
type fanoutSink []serve.VerdictSink

func (s fanoutSink) Record(channel string, channelSeq uint64, res aovlis.Result) {
	for _, sub := range s {
		sub.Record(channel, channelSeq, res)
	}
}

type ledgerSink struct{ led *ledger.Ledger }

func (s ledgerSink) Record(channel string, channelSeq uint64, res aovlis.Result) {
	s.led.Append(ledger.Entry{Channel: channel, ChannelSeq: channelSeq, UnixNanos: time.Now().UnixNano(),
		Anomaly: res.Anomaly, Score: res.Score, Exact: res.Exact, Path: res.Path})
}

type watchSink struct{ hub *live.Hub }

func (s watchSink) Record(channel string, channelSeq uint64, res aovlis.Result) {
	d := decisionOf(channel, channelSeq, res)
	d.WSeq = channelSeq
	if b, err := json.Marshal(d); err == nil {
		s.hub.Publish(channel, b)
	}
}

// pipeline is the in-process assembly of the daemon's layers, in the
// daemon's order, from their public functions: decode → (wal.Log.Append) →
// DetectorPool.SubmitInto → outcome → (ledger.Append, hub publish) →
// encode. The benchmark owns every boundary, so it can put a span on each.
type pipeline struct {
	pool  *serve.DetectorPool
	wal   *wal.Log
	led   *ledger.Ledger
	hub   *live.Hub
	names []string
}

// newPipeline builds the pool the workload's daemons run (two shard
// workers in all, batch 16, admission on) with one detector per channel.
func newPipeline(in *inputs, model []byte, dir string, rec *recorder) (*pipeline, error) {
	w := in.w
	pool, err := serve.NewDetectorPool(serve.Config{Shards: 2, QueueDepth: 256, Policy: serve.Block, Batch: 16,
		Admission: serve.DefaultAdmissionConfig()})
	if err != nil {
		return nil, err
	}
	p := &pipeline{pool: pool, hub: live.NewHub(live.HubConfig{})}
	index := map[string]int{}
	for c := 0; c < w.channels; c++ {
		p.names = append(p.names, channelName(c))
		index[channelName(c)] = c
	}
	sinks := fanoutSink{}
	if w.mix == durableLive {
		if p.led, err = ledger.Open(filepath.Join(dir, "ledger"), ledger.Options{}); err != nil {
			p.close()
			return nil, err
		}
		sinks = append(sinks, tracedSink{ledgerSink{p.led}, spLedger, rec, index})
	}
	sinks = append(sinks, tracedSink{watchSink{p.hub}, spPublish, rec, index})
	pool.AttachVerdictSink(sinks)
	if w.mix == durableLive {
		if p.wal, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{}); err != nil {
			p.close()
			return nil, err
		}
		pool.AttachJournal(tracedJournal{p.wal, rec, index}, map[string]uint64{})
	}
	for c, name := range p.names {
		det, err := loadDetector(model, w.fastTiered())
		if err == nil {
			err = pool.Attach(name, &tracedDetector{det, rec, c})
		}
		if err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

func (p *pipeline) close() {
	p.pool.Close()
	p.hub.Close()
	if p.led != nil {
		p.led.Close()
	}
	if p.wal != nil {
		p.wal.Close()
	}
}

// replay pushes channel c's first n segments through the pipeline one at a
// time — the blocking path of one segment on an idle stream — recording
// spans on the odd ones, and returns each segment's whole duration in ns.
func (p *pipeline) replay(in *inputs, c, n int, rec *recorder) ([]float64, error) {
	out := make(chan serve.Outcome, 1)
	durs := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		rec.segment(c, k, k%2 == 1)
		t0 := time.Now()
		root := rec.begin()

		s := rec.begin()
		var obs live.Observation
		if err := json.Unmarshal(in.lines[c][in.seq[c][k]], &obs); err != nil {
			return nil, err
		}
		rec.end(spDecode, c, s)

		s = rec.begin()
		if err := p.pool.SubmitInto(p.names[c], obs.Action, obs.Audience, out); err != nil {
			return nil, err
		}
		rec.end(spSubmit, c, s)

		s = rec.begin()
		o := <-out
		rec.end(spAwait, c, s)
		if o.Err != nil {
			return nil, o.Err
		}

		s = rec.begin()
		d := decisionOf(p.names[c], uint64(k), o.Result)
		d.WSeq = o.Seq
		if _, err := json.Marshal(&d); err != nil {
			return nil, err
		}
		rec.end(spEncode, c, s)

		rec.end(spSegment, c, root)
		durs = append(durs, float64(time.Since(t0)))
	}
	return durs, nil
}

// tracedReplay replays every channel once with spans recorded on every
// second segment. Traced and untraced segments alternate inside one pass
// over one pool, so whatever else moves between passes (caches, the page
// cache under the journal, a busy neighbour) hits both alike; the difference
// of their median durations, over the untraced median, is the tracing
// overhead.
func tracedReplay(in *inputs, model []byte, dir string) (spans []span, overhead float64, err error) {
	rec := newRecorder(in.w.channels, tracedSegments)
	passDir := filepath.Join(dir, "traced-replay")
	p, err := newPipeline(in, model, passDir, rec)
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(passDir)
	defer p.close()
	var on, off []float64
	for c := 0; c < in.w.channels; c++ {
		// A short run's thinnest Zipf channel streams fewer segments.
		n := min(tracedSegments, len(in.seq[c]))
		durs, err := p.replay(in, c, n, rec)
		if err != nil {
			return nil, 0, err
		}
		for k := seqLen; k < n; k++ { // warm-up segments skip the model
			if k%2 == 1 {
				on = append(on, durs[k])
			} else {
				off = append(off, durs[k])
			}
		}
	}
	return rec.export(), (median(on) - median(off)) / median(off), nil
}

// inprocCapacity drives the same pool with the same channels and the same
// window as the saturate phase, with no transport at all.
func inprocCapacity(in *inputs, model []byte, dir string) (float64, error) {
	p, err := newPipeline(in, model, dir, nil)
	if err != nil {
		return 0, err
	}
	defer p.close()
	defer os.RemoveAll(dir)
	errs := make([]error, in.w.channels)
	total := 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < in.w.channels; c++ {
		n := min(inprocSegments, len(in.seq[c]))
		total += n
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			outs := make([]chan serve.Outcome, clientWindow)
			for i := range outs {
				outs[i] = make(chan serve.Outcome, 1)
			}
			for k := 0; k < n+clientWindow; k++ {
				slot := outs[k%clientWindow]
				if k >= clientWindow {
					if o := <-slot; o.Err != nil {
						errs[c] = o.Err
					}
				}
				if k < n {
					d := in.seq[c][k]
					if err := p.pool.SubmitInto(p.names[c], in.act[c][d], in.aud[c][d], slot); err != nil {
						errs[c] = err
						return
					}
				}
			}
		}(c, n)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(total) / wall.Seconds(), nil
}
