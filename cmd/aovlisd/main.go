// Command aovlisd is the multi-channel AOVLIS detection daemon: it trains
// (or loads) one detector, then serves any number of live channels over
// HTTP, cloning the trained model per channel and scoring their segment
// features concurrently through a sharded serve.DetectorPool.
//
// Endpoints:
//
//	POST /channels/{id}/observe   NDJSON in, NDJSON out. Each request line
//	                              is {"action":[...],"audience":[...]};
//	                              each response line is the decision for
//	                              that segment, streamed as it is made.
//	                              The channel is created on first use.
//	GET  /channels/{id}/stats     per-channel counters as JSON
//	GET  /channels/{id}/snapshot  export the channel's quiesced runtime
//	                              snapshot (migration send half)
//	PUT  /channels/{id}/snapshot  attach a channel restored from an uploaded
//	                              snapshot (migration receive half)
//	GET  /channels                all channels' counters as JSON
//	POST /snapshot                with -snapshot-dir: checkpoint every
//	                              channel now; returns the commit report
//	GET  /ledger/root             with -ledger-dir: the verdict ledger's
//	                              chained Merkle head (record it out-of-band,
//	                              check it later with aovlisctl verify)
//	GET  /ledger/proof/{seq}      Merkle inclusion proof for one committed
//	                              verdict, verifiable offline
//	GET  /live/{channel}          WebSocket live ingest (RFC 6455, no
//	                              external deps): observation objects in,
//	                              decision objects out, pipelined through
//	                              the same zero-alloc submit path. Send
//	                              Last-Seq on reconnect to replay decisions
//	                              lost in flight; the 101 response carries
//	                              X-Aovlis-Resume, the accepted floor the
//	                              client must not resend at or below
//	                              (ARCHITECTURE.md §15)
//	GET  /watch                   SSE verdict dashboard: every non-warmup
//	                              verdict as an `event: verdict`, with
//	                              Last-Event-ID reconnect replay and an
//	                              optional ?channel= filter
//	GET  /healthz                 liveness + pool totals
//	GET  /metrics                 Prometheus text exposition: per-stage
//	                              latency histograms, throughput counters,
//	                              admission state, shard queue depths
//	                              (disable with -metrics=false)
//	GET  /debug/pprof/*           with -pprof: CPU/heap/alloc/trace profiles
//	                              (BENCH.md §4)
//
// With -snapshot-dir the daemon becomes crash-safe: it checkpoints every
// channel periodically (-snapshot-every) and on graceful shutdown, and on
// boot it warm-restarts every channel found in the directory's manifest —
// sliding windows, thresholds and pending update samples included — so
// detection resumes exactly where the previous process stopped instead of
// cold-starting every window (ARCHITECTURE.md §9, README "Operations").
//
// With -continual the channels learn from each other: an absorb loop
// periodically folds every attached channel's adapted weights into a shared
// base parameter set (weight -absorb-weight, cadence -absorb-every), and a
// channel attached mid-stream warm-starts from that base instead of the
// cold training checkpoint — the fleet's consensus of "normal" transfers to
// newcomers, cutting their cold-start steps to the first stable verdict.
//
// Adding -wal-dir closes the gap between checkpoints: every accepted
// observation is fsynced to an append-only journal before it is queued, and
// boot replays the journal tail above each channel's checkpointed floor, so
// even a kill -9 loses zero acknowledged segments. -ledger-dir additionally
// appends every non-warmup verdict to a Merkle-batched hash chain whose
// head is served at /ledger/root and whose per-verdict inclusion proofs are
// verifiable offline with aovlisctl (ARCHITECTURE.md §14).
//
// Usage:
//
//	aovlisd -addr :8080 -preset INF -train-sec 420
//	aovlisd -load model.bin -shards 8 -policy drop
//	aovlisd -load model.bin -snapshot-dir /var/lib/aovlis -snapshot-every 30s
//
//	curl -N -XPOST --data-binary @features.ndjson \
//	    localhost:8080/channels/alice/observe
//	curl localhost:8080/channels/alice/stats
//	curl -XPOST localhost:8080/snapshot
//	curl localhost:8080/channels/alice/snapshot > alice.snap   # migrate out
//	curl -XPUT --data-binary @alice.snap localhost:9090/channels/alice/snapshot
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aovlis"
	"aovlis/internal/dataset"
	"aovlis/internal/ledger"
	"aovlis/internal/metrics"
	"aovlis/internal/serve"
	"aovlis/internal/snapshot"
	"aovlis/internal/stream/live"
	"aovlis/internal/synth"
	"aovlis/internal/wal"
	"aovlis/internal/wire"
)

// options collects the daemon's command-line configuration.
type options struct {
	addr          string
	presetName    string
	trainSec      int
	classes       int
	epochs        int
	seed          int64
	loadPath      string
	fastMath      bool
	tiered        bool
	shards        int
	queueDepth    int
	batch         int
	policyName    string
	maxChannels   int
	enablePprof   bool
	enableMetrics bool
	admission     bool
	snapshotDir   string
	snapshotEvery time.Duration
	nodeID        string
	walDir        string
	ledgerDir     string
	ledgerBatch   int
	continual     bool
	absorbWeight  float64
	absorbEvery   time.Duration
}

// admissionConfig is the pool's admission control: the shipped watermarks,
// or none.
func (o options) admissionConfig() serve.AdmissionConfig {
	if !o.admission {
		return serve.AdmissionConfig{}
	}
	return serve.DefaultAdmissionConfig()
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.presetName, "preset", "INF", "training stream preset: INF, SPE, TED or TWI")
	flag.IntVar(&o.trainSec, "train-sec", 420, "training stream length (seconds)")
	flag.IntVar(&o.classes, "classes", 48, "action feature classes (d1)")
	flag.IntVar(&o.epochs, "epochs", 10, "training epochs")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.StringVar(&o.loadPath, "load", "", "load a saved detector instead of training")
	flag.BoolVar(&o.fastMath, "fastmath", false, "score with the polynomial SIMD exp/tanh gate kernels (a few ULP off the exact kernels; see ARCHITECTURE.md §8)")
	flag.BoolVar(&o.tiered, "tiered", false, "enable bound-gated tier skipping: segments the anchor bound clears as normal skip the LSTM predict entirely (one-sided; flip rate pinned by the root test harness)")
	flag.IntVar(&o.shards, "shards", 4, "detector pool shards (worker goroutines)")
	flag.IntVar(&o.queueDepth, "queue", 256, "per-shard ingest queue depth")
	flag.IntVar(&o.batch, "batch", 16, "micro-batching drain cap: segments a shard worker scores per wake-up through the batched inference path (0 or 1 disables; scores are bit-identical either way)")
	flag.StringVar(&o.policyName, "policy", "block", "queue overflow policy: block or drop")
	flag.IntVar(&o.maxChannels, "max-channels", 1024, "maximum concurrently attached channels (each holds ~13 KB over the shared model weights, ~110 KB once it scores 16-segment batches; BENCH.md §15)")
	flag.BoolVar(&o.enablePprof, "pprof", false, "serve /debug/pprof profiling endpoints (BENCH.md §4); exposes process internals, enable only on trusted listeners")
	flag.BoolVar(&o.enableMetrics, "metrics", true, "serve the Prometheus text exposition at GET /metrics (per-stage latency histograms, admission state, shard queue depths)")
	flag.BoolVar(&o.admission, "admission", true, "watermark-based overload control: reject submissions with HTTP 429 + Retry-After once a shard queue is 90% full, until every queue has drained to 1/4; accepted segments are always scored, in the configured mode")
	flag.StringVar(&o.snapshotDir, "snapshot-dir", "", "crash-safe checkpoint directory: restore channels from it on boot, checkpoint into it periodically, on POST /snapshot and on graceful shutdown")
	flag.DurationVar(&o.snapshotEvery, "snapshot-every", 0, "with -snapshot-dir: checkpoint every channel at this interval (0 disables periodic snapshots)")
	flag.StringVar(&o.nodeID, "node-id", "", "stable node identity reported by /healthz; an aovlisr router cross-checks it against its -nodes config so a stale port reuse can never masquerade as a fleet member")
	flag.StringVar(&o.walDir, "wal-dir", "", "crash-proof ingest journal directory: every accepted observation is fsynced here before it is queued, and boot replays the journal tail so a kill -9 loses zero acknowledged segments (ARCHITECTURE.md §14)")
	flag.StringVar(&o.ledgerDir, "ledger-dir", "", "tamper-evident verdict ledger directory: every non-warmup verdict is appended to a Merkle-batched hash chain served at GET /ledger/root and /ledger/proof/{seq}, verifiable offline with aovlisctl verify")
	flag.IntVar(&o.ledgerBatch, "ledger-batch", ledger.DefaultBatchSize, "verdicts per committed ledger batch (each commit is one fsynced Merkle block)")
	flag.BoolVar(&o.continual, "continual", false, "cross-channel continual learning: periodically fold every channel's adapted weights into a shared base (-absorb-every, -absorb-weight) and warm-start newly attached channels from it instead of the cold template (ARCHITECTURE.md §15)")
	flag.Float64Var(&o.absorbWeight, "absorb-weight", 0.25, "with -continual: per-absorb weight of the incoming channel in the shared base, in (0,1] — small keeps the base a slow fleet consensus")
	flag.DurationVar(&o.absorbEvery, "absorb-every", 30*time.Second, "with -continual: how often the absorb loop folds every channel into the shared base")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "aovlisd:", err)
		os.Exit(1)
	}
}

// buildPool warm-restarts the pool from the snapshot directory when one is
// committed there, and starts empty only when no snapshot exists yet. Any
// other manifest problem (corruption, permissions) aborts boot: silently
// cold-starting would let the next periodic checkpoint overwrite the still-
// recoverable previous state.
func buildPool(o options, cfg serve.Config) (*serve.DetectorPool, error) {
	if o.snapshotDir != "" {
		switch _, err := snapshot.ReadManifest(o.snapshotDir); {
		case err == nil:
			pool, err := serve.RestorePool(o.snapshotDir, cfg)
			if err != nil {
				return nil, fmt.Errorf("restoring pool from %s: %w", o.snapshotDir, err)
			}
			fmt.Printf("warm restart: restored %d channels from %s\n", pool.Len(), o.snapshotDir)
			return pool, nil
		case errors.Is(err, fs.ErrNotExist):
			// First boot into this directory: start empty.
		default:
			return nil, fmt.Errorf("snapshot dir %s is present but unreadable (fix or remove it before booting): %w", o.snapshotDir, err)
		}
	}
	return serve.NewDetectorPool(cfg)
}

func run(o options) error {
	policy, err := serve.ParsePolicy(o.policyName)
	if err != nil {
		return err
	}
	if o.snapshotEvery < 0 || (o.snapshotEvery > 0 && o.snapshotDir == "") {
		return fmt.Errorf("-snapshot-every needs -snapshot-dir and a non-negative interval")
	}
	if o.ledgerBatch < 1 {
		return fmt.Errorf("-ledger-batch must be at least 1")
	}
	if o.continual {
		if o.absorbWeight <= 0 || o.absorbWeight > 1 {
			return fmt.Errorf("-absorb-weight %g outside (0,1]", o.absorbWeight)
		}
		if o.absorbEvery <= 0 {
			return fmt.Errorf("-continual needs a positive -absorb-every")
		}
	}
	template, err := buildTemplate(o)
	if err != nil {
		return err
	}
	pool, err := buildPool(o, serve.Config{Shards: o.shards, QueueDepth: o.queueDepth, Policy: policy, Batch: o.batch,
		Admission: o.admissionConfig()})
	if err != nil {
		return err
	}

	d := &daemon{pool: pool, template: template, maxChannels: o.maxChannels,
		obsWindow: o.batch, snapshotDir: o.snapshotDir, nodeID: o.nodeID, started: time.Now(),
		hub: live.NewHub(live.HubConfig{})}
	if o.continual {
		d.base = aovlis.NewContinualBase(template)
	}

	// Durability boot order (ARCHITECTURE.md §14): the snapshot restore
	// already happened in buildPool; attach the verdict sink before replay
	// (so replayed verdicts are ledgered too), replay the journal tail,
	// then attach the journal — only after that may traffic start.
	if err := d.openLedger(o); err != nil {
		pool.Close()
		return err
	}
	d.attachVerdictSinks()
	if err := d.openWAL(o); err != nil {
		d.closeDurability()
		pool.Close()
		return err
	}
	srv := &http.Server{Addr: o.addr, Handler: d.handler(o.enablePprof, o.enableMetrics)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.snapshotEvery > 0 {
		go d.snapshotLoop(ctx, o.snapshotEvery)
	}
	if o.continual {
		go d.absorbLoop(ctx, o.absorbEvery, o.absorbWeight)
		fmt.Printf("continual learning: absorbing channels into the shared base every %s at weight %g\n",
			o.absorbEvery, o.absorbWeight)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("aovlisd listening on %s (%d shards, queue %d, policy %s, τ = %.4f)\n",
		o.addr, o.shards, o.queueDepth, policy, template.Tau())

	select {
	case err := <-errc:
		d.hub.Close()
		pool.Close()
		d.closeDurability()
		return err
	case <-ctx.Done():
	}
	fmt.Println("aovlisd: shutting down")
	// Live plane first: hijacked WebSocket connections are invisible to
	// Shutdown's drain and an SSE watch stream never ends on its own, so
	// Close cuts them here — every live handler unblocks, drains its
	// in-flight submissions into the resume ring and returns, and only then
	// can the listener drain below actually finish.
	d.hub.Close()
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return err
	}
	// Final checkpoint after the listener drained (no more submissions) and
	// before the pool stops: a graceful shutdown is always warm-restartable.
	// snapshotNow's mutex waits out a periodic checkpoint still in flight.
	if o.snapshotDir != "" {
		if rep, err := d.snapshotNow(); err != nil {
			fmt.Fprintf(os.Stderr, "aovlisd: final snapshot failed: %v\n", err)
		} else {
			fmt.Printf("final snapshot: %d channels, %d bytes in %s\n", rep.Channels, rep.Bytes, rep.Elapsed)
		}
	}
	// Pool first (stops the shard workers, so no append or verdict can
	// race the closes), then the ledger (Close flushes the pending batch),
	// then the journal.
	err = pool.Close()
	if derr := d.closeDurability(); err == nil {
		err = derr
	}
	return err
}

// openLedger opens the verdict ledger and attaches it to the pool as the
// verdict sink. Boot refuses a ledger that fails its own chain
// verification — appending to a tampered or truncated chain would silently
// launder it.
func (d *daemon) openLedger(o options) error {
	if o.ledgerDir == "" {
		return nil
	}
	reg := d.pool.Metrics()
	commits := reg.Counter("aovlis_ledger_commits_total",
		"Committed Merkle batches appended to the verdict ledger.")
	entries := reg.Counter("aovlis_ledger_entries_total",
		"Verdicts committed to the ledger across all batches.")
	led, err := ledger.Open(o.ledgerDir, ledger.Options{
		BatchSize: o.ledgerBatch,
		OnCommit:  func(n int) { commits.Inc(); entries.Add(uint64(n)) },
	})
	if err != nil {
		return fmt.Errorf("opening verdict ledger %s: %w", o.ledgerDir, err)
	}
	d.ledger = led
	head := led.Root()
	fmt.Printf("verdict ledger %s: %d batches, %d entries, head %.16s…\n",
		o.ledgerDir, head.Batches, head.Entries, head.Chained)
	return nil
}

// openWAL opens the ingest journal, replays its tail through the pool and
// attaches it to the accept path. Records at or below a channel's
// checkpointed floor (manifest WALSeq) were already restored by the
// snapshot and are skipped; everything above it is re-applied in journal
// order, recreating never-checkpointed channels on the fly.
func (d *daemon) openWAL(o options) error {
	if o.walDir == "" {
		return nil
	}
	fsync := d.pool.Metrics().Histogram("aovlis_wal_fsync_seconds",
		"Latency of WAL group-commit fsyncs.", metrics.ExpBuckets(1e-6, 2, 23))
	j, err := wal.Open(o.walDir, wal.Options{FsyncObserve: fsync.Observe})
	if err != nil {
		return fmt.Errorf("opening ingest WAL %s: %w", o.walDir, err)
	}

	floors := make(map[string]uint64)
	if o.snapshotDir != "" {
		if m, err := snapshot.ReadManifest(o.snapshotDir); err == nil {
			for _, e := range m.Channels {
				floors[e.ID] = e.WALSeq
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			j.Close()
			return fmt.Errorf("reading snapshot manifest for WAL replay: %w", err)
		}
	}
	replayed, skipped := 0, 0
	if err := j.Replay(func(r wal.Record) error {
		if r.Seq <= floors[r.Channel] {
			skipped++
			return nil
		}
		if err := d.ensureChannel(r.Channel); err != nil {
			return fmt.Errorf("recreating channel %s: %w", r.Channel, err)
		}
		if _, err := d.pool.ReplayObserve(r.Channel, r.Seq, r.Action, r.Audience); err != nil {
			return fmt.Errorf("channel %s seq %d: %w", r.Channel, r.Seq, err)
		}
		replayed++
		return nil
	}); err != nil {
		j.Close()
		return fmt.Errorf("replaying ingest WAL %s: %w", o.walDir, err)
	}

	seed := j.MaxSeqs()
	for id, floor := range floors {
		if floor > seed[id] {
			seed[id] = floor
		}
	}
	d.pool.AttachJournal(j, seed)
	d.wal = j
	fmt.Printf("ingest WAL %s: replayed %d records (%d below checkpoint floors) across %d segments\n",
		o.walDir, replayed, skipped, j.Segments())
	return nil
}

// closeDurability closes the journal and ledger (flushing the ledger's
// pending batch); callers run it after the pool has stopped.
func (d *daemon) closeDurability() error {
	var err error
	if d.ledger != nil {
		if e := d.ledger.Close(); e != nil {
			err = fmt.Errorf("closing verdict ledger: %w", e)
			fmt.Fprintln(os.Stderr, "aovlisd:", err)
		}
	}
	if d.wal != nil {
		if e := d.wal.Close(); e != nil && err == nil {
			err = fmt.Errorf("closing ingest WAL: %w", e)
			fmt.Fprintln(os.Stderr, "aovlisd:", err)
		}
	}
	return err
}

// attachVerdictSinks wires the pool's verdict sink as a fan-out: the live
// watch hub always receives every verdict (the SSE dashboard works with or
// without durability), and the ledger receives them too when enabled. Runs
// on the boot path between openLedger and openWAL so WAL-replayed verdicts
// reach both.
func (d *daemon) attachVerdictSinks() {
	if d.ledger == nil {
		d.pool.AttachVerdictSink(watchSink{hub: d.hub})
		return
	}
	d.pool.AttachVerdictSink(fanoutSink{ledgerSink{d.ledger}, watchSink{hub: d.hub}})
}

// fanoutSink fans one verdict out to several sinks in order.
type fanoutSink []serve.VerdictSink

func (s fanoutSink) Record(channel string, channelSeq uint64, res aovlis.Result) {
	for _, sub := range s {
		sub.Record(channel, channelSeq, res)
	}
}

// watchSink publishes every verdict to the live hub's SSE watch ring. The
// hub never blocks on a slow dashboard (it disconnects laggards instead),
// so this is safe on the scoring path.
type watchSink struct{ hub *live.Hub }

func (s watchSink) Record(channel string, channelSeq uint64, res aovlis.Result) {
	d := wire.Decision{Channel: channel, Seq: channelSeq, WSeq: channelSeq}
	d.SetResult(res)
	b, err := wire.AppendDecision(nil, &d)
	if err != nil {
		return
	}
	b = b[:len(b)-1]
	s.hub.Publish(channel, b)
}

// ledgerSink adapts the verdict ledger to the pool's VerdictSink. The
// ledger serialises appends internally; an append error is reported once
// the daemon checkpoints (Flush) — the hot path must not block scoring on
// ledger I/O diagnostics.
type ledgerSink struct{ led *ledger.Ledger }

func (s ledgerSink) Record(channel string, channelSeq uint64, res aovlis.Result) {
	_, err := s.led.Append(ledger.Entry{
		Channel:    channel,
		ChannelSeq: channelSeq,
		UnixNanos:  time.Now().UnixNano(),
		Anomaly:    res.Anomaly,
		Score:      res.Score,
		Exact:      res.Exact,
		Path:       res.Path,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "aovlisd: ledger append (channel %s seq %d): %v\n", channel, channelSeq, err)
	}
}

// snapshotNow runs one serialised checkpoint into the snapshot directory.
// All checkpoint paths (periodic loop, POST /snapshot, final shutdown
// snapshot) go through here so they can never interleave in the directory.
func (d *daemon) snapshotNow() (serve.Report, error) {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	rep, err := d.pool.Snapshot(d.snapshotDir)
	if err != nil {
		return rep, err
	}
	d.lastSnapshot.Store(time.Now().UnixNano())
	// Checkpoint commit order: the manifest is durable, so verdicts up to
	// it can be sealed and journal segments covered by its per-channel
	// floors can go — but only in that order. Journal segments may be
	// deleted only after the verdict ledger has flushed (the wal/ledger
	// crash contract): the WAL replay is the sole way to rebuild verdicts
	// that were pending in a failed flush, so on a flush error the
	// truncate is skipped and the journal stays conservative until the
	// next successful checkpoint. Neither failure invalidates the
	// snapshot itself — surface them without failing the checkpoint
	// (extra retained segments only mean extra replay, never loss).
	ledgerFlushed := true
	if d.ledger != nil {
		if err := d.ledger.Flush(); err != nil {
			ledgerFlushed = false
			fmt.Fprintf(os.Stderr, "aovlisd: ledger flush after snapshot: %v\n", err)
		}
	}
	if d.wal != nil && ledgerFlushed {
		m, err := snapshot.ReadManifest(d.snapshotDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aovlisd: rereading manifest for WAL truncation: %v\n", err)
			return rep, nil
		}
		cover := make(map[string]uint64, len(m.Channels))
		for _, e := range m.Channels {
			cover[e.ID] = e.WALSeq
		}
		if _, err := d.wal.Truncate(cover); err != nil {
			fmt.Fprintf(os.Stderr, "aovlisd: truncating ingest WAL: %v\n", err)
		}
	}
	return rep, nil
}

// absorbLoop folds every attached channel into the shared base at the
// configured cadence until the daemon begins shutting down.
func (d *daemon) absorbLoop(ctx context.Context, every time.Duration, w float64) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			d.absorbAll(w)
		}
	}
}

// absorbAll runs one absorb sweep: each channel's weights merge into the
// shared base at a quiesced segment boundary (WithChannel), so the merge
// never races the channel's own scoring or retraining. Channels detached
// mid-sweep and a pool already closing are skipped silently.
func (d *daemon) absorbAll(w float64) {
	for _, id := range d.pool.Channels() {
		err := d.pool.WithChannel(id, func(det serve.Detector) error {
			ad, ok := det.(*aovlis.Detector)
			if !ok {
				return nil // an alternative backend carries no weights to absorb
			}
			return d.base.AbsorbFrom(ad, w)
		})
		if err != nil && !errors.Is(err, serve.ErrUnknownChannel) && !errors.Is(err, serve.ErrClosed) {
			fmt.Fprintf(os.Stderr, "aovlisd: absorb %s: %v\n", id, err)
		}
	}
}

// snapshotLoop checkpoints the pool at the configured cadence until the
// daemon begins shutting down.
func (d *daemon) snapshotLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := d.snapshotNow(); err != nil {
				fmt.Fprintf(os.Stderr, "aovlisd: periodic snapshot failed: %v\n", err)
			}
		}
	}
}

// buildTemplate trains a detector on a normal synthetic stream or loads a
// saved one; its clones serve the channels. -fastmath/-tiered select the
// scoring mode in both cases (on a loaded detector they override the mode
// it was saved with; clones inherit the override).
func buildTemplate(o options) (*aovlis.Detector, error) {
	if o.loadPath != "" {
		f, err := os.Open(o.loadPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		det, err := aovlis.Load(f)
		if err != nil {
			return nil, err
		}
		if o.fastMath || o.tiered {
			if err := det.SetScoringMode(o.fastMath, o.tiered); err != nil {
				return nil, err
			}
		}
		fmt.Printf("loaded detector from %s (τ = %.4f%s)\n", o.loadPath, det.Tau(), scoringSuffix(o))
		return det, nil
	}
	preset, err := synth.PresetByName(o.presetName)
	if err != nil {
		return nil, err
	}
	dcfg := dataset.DefaultConfig(preset)
	dcfg.TrainSec, dcfg.TestSec = o.trainSec, 64 // the test stream is unused here
	dcfg.Classes = o.classes
	dcfg.Seed = o.seed
	fmt.Printf("training on a %ds normal %s stream...\n", o.trainSec, preset.Name)
	ds, err := dataset.Build(dcfg)
	if err != nil {
		return nil, err
	}
	cfg := aovlis.DefaultConfig(o.classes, dcfg.Audience.Dim())
	cfg.Epochs = o.epochs
	cfg.Seed = o.seed
	cfg.FastMath = o.fastMath
	cfg.Tiered = o.tiered
	det, err := aovlis.Train(ds.TrainActions, ds.TrainAudience, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trained: %d parameters, τ = %.4f%s\n", det.Model().NumParams(), det.Tau(), scoringSuffix(o))
	return det, nil
}

// scoringSuffix renders the non-default scoring mode for boot logging.
func scoringSuffix(o options) string {
	switch {
	case o.fastMath && o.tiered:
		return ", fastmath+tiered scoring"
	case o.fastMath:
		return ", fastmath scoring"
	case o.tiered:
		return ", tiered scoring"
	default:
		return ""
	}
}

// daemon is the HTTP front of the pool.
type daemon struct {
	pool        *serve.DetectorPool
	template    *aovlis.Detector
	maxChannels int
	snapshotDir string
	nodeID      string
	started     time.Time

	// wal is the ingest journal (nil without -wal-dir): submit fsyncs every
	// accepted observation into it before queueing, and snapshotNow
	// truncates it up to the committed checkpoint's per-channel floors.
	wal *wal.Log

	// ledger is the tamper-evident verdict log (nil without -ledger-dir),
	// fed by the pool's verdict sink and flushed on every checkpoint.
	ledger *ledger.Ledger

	// hub is the live plane's shared state: per-channel resume rings for
	// the WebSocket ingest endpoint and the SSE watch fan-out. Every scored
	// verdict reaches it through the pool's verdict sink.
	hub *live.Hub

	// base is the cross-channel continual-learning accumulator (nil
	// without -continual): the absorb loop folds live channels into it at
	// quiesced segment boundaries, and ensureChannel warm-starts fresh
	// clones from it instead of the cold template.
	base *aovlis.ContinualBase

	// obsWindow is the observe handler's submission pipeline depth: up to
	// this many segments of one NDJSON stream are in flight at once, which
	// is what feeds the pool's micro-batching a real backlog. ≤1 keeps the
	// strictly synchronous submit-wait-respond loop.
	obsWindow int

	// lastSnapshot is the UnixNano of the last successful checkpoint (0 if
	// none), reported by /healthz.
	lastSnapshot atomic.Int64

	// snapMu serialises checkpoints into snapshotDir: the periodic loop,
	// POST /snapshot and the final shutdown snapshot must never interleave
	// (concurrent Snapshots into one directory race on the manifest).
	snapMu sync.Mutex

	// attachMu serialises channel creation so concurrent first-observes of
	// one id clone the template exactly once.
	attachMu sync.Mutex
}

// handler assembles the daemon's routes. Factored out of run so the
// httptest suite drives exactly the production mux.
func (d *daemon) handler(enablePprof, enableMetrics bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", d.handleHealth)
	mux.HandleFunc("/channels", d.handleList)
	mux.HandleFunc("/channels/", d.handleChannel)
	mux.HandleFunc("/snapshot", d.handleSnapshot)
	// Live plane (ARCHITECTURE.md §15): WebSocket ingest with Last-Seq
	// resume, and the SSE verdict dashboard. The ingest handler shares the
	// NDJSON handler's pipelining depth so both planes feed the shard
	// micro-batcher the same backlog.
	mux.Handle("/live/", &live.IngestHandler{
		Pool: d.pool, Hub: d.hub, Ensure: d.ensureChannel, Window: d.obsWindow})
	mux.HandleFunc("/watch", d.hub.ServeWatch)
	mux.HandleFunc("/ledger/root", d.handleLedgerRoot)
	mux.HandleFunc("/ledger/proof/", d.handleLedgerProof)
	if enableMetrics {
		mux.HandleFunc("/metrics", d.handleMetrics)
	}
	if enablePprof {
		// Profiling endpoints: the perf methodology in BENCH.md captures
		// CPU, heap, allocation and execution-trace profiles against a live
		// daemon. Opt-in because profiles leak process internals and a
		// repeated /profile capture degrades detection latency.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleMetrics serves the pool's registry in Prometheus text exposition
// format. The registry is live — scraping reads the pool's atomics in
// place, so the endpoint costs one buffer write per instrument.
func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "metrics wants GET", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	d.pool.Metrics().WritePrometheus(w)
}

// ensureChannel attaches a fresh clone of the template under id if needed.
func (d *daemon) ensureChannel(id string) error {
	d.attachMu.Lock()
	defer d.attachMu.Unlock()
	if _, err := d.pool.Stats(id); err == nil {
		return nil
	}
	if n := d.pool.Len(); n >= d.maxChannels {
		return fmt.Errorf("channel limit reached (%d)", d.maxChannels)
	}
	det, err := d.template.Clone()
	if err != nil {
		return err
	}
	if d.base != nil {
		// Continual learning: a channel attached mid-stream starts from the
		// fleet's shared base — what its peers already learned — instead of
		// the cold training checkpoint.
		if err := d.base.WarmStart(det); err != nil {
			return err
		}
	}
	err = d.pool.Attach(id, det)
	if errors.Is(err, serve.ErrChannelExists) {
		return nil
	}
	return err
}

// handleChannel routes /channels/{id}/observe and /channels/{id}/stats.
func (d *daemon) handleChannel(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/channels/")
	id, verb, ok := strings.Cut(rest, "/")
	if !ok || id == "" {
		// Bare /channels/{id}: DELETE detaches the channel (the final step
		// of a router-driven migration — the new owner holds the imported
		// state, the old copy must stop existing so it can never diverge).
		if id != "" && r.Method == http.MethodDelete {
			if err := d.pool.Detach(id); err != nil {
				http.Error(w, err.Error(), statusForPoolErr(err))
				return
			}
			fmt.Fprintf(w, "channel %q detached\n", id)
			return
		}
		http.Error(w, "want /channels/{id}/observe, /channels/{id}/stats or DELETE /channels/{id}", http.StatusNotFound)
		return
	}
	switch verb {
	case "observe":
		if r.Method != http.MethodPost {
			http.Error(w, "observe wants POST", http.StatusMethodNotAllowed)
			return
		}
		d.handleObserve(w, r, id)
	case "stats":
		if r.Method != http.MethodGet {
			http.Error(w, "stats wants GET", http.StatusMethodNotAllowed)
			return
		}
		st, err := d.pool.Stats(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, st)
	case "snapshot":
		d.handleChannelSnapshot(w, r, id)
	default:
		http.Error(w, fmt.Sprintf("unknown channel action %q", verb), http.StatusNotFound)
	}
}

// handleObserve streams decisions for an NDJSON observation stream: the
// NDJSON framing of the segment pump (serve.Pump). Each line is scored in
// order through the channel's shard, up to obsWindow of them in flight at
// once; a decision's seq is its line index in this stream. A line that is
// not scored says why: "rejected" when admission control refused it
// mid-stream (nothing lost, back off and resend), "dropped" when a full
// queue under the drop policy lost it.
func (d *daemon) handleObserve(w http.ResponseWriter, r *http.Request, id string) {
	// The handler interleaves request-body reads with streamed response
	// writes. Go's HTTP/1 server is half-duplex by default — it discards
	// the unread body once the response starts — so full duplex must be
	// requested explicitly (HTTP/2 interleaves natively; the error there
	// is ignorable). This must happen before ANY early return that writes
	// a response: without it the server blocks post-handler draining the
	// unread request body, and a router (aovlisr) holds its forward pipe
	// open indefinitely — the 429 below would deadlock instead of reaching
	// the client.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil && r.ProtoMajor == 1 {
		http.Error(w, fmt.Sprintf("streaming unsupported: %v", err), http.StatusInternalServerError)
		return
	}
	// Fail fast while overloaded: a stream that starts in the reject state
	// gets a plain 429 + Retry-After before any line is scored, so clients
	// back off instead of feeding a stream of per-line rejections — and
	// before ensureChannel, so a refused stream on a new channel id neither
	// clones the template nor takes a -max-channels slot.
	// Both refusals leave the request body unread with full duplex on, so
	// they close the connection: reusing it makes net/http find the body's
	// EOF only while closing it after the response, and its next read then
	// panics on its own background read ("invalid concurrent Body.Read
	// call") — the client got its status, but the connection dies noisily.
	if d.pool.AdmissionState() == serve.AdmitReject {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Connection", "close")
		http.Error(w, "pool overloaded (admission reject), retry later", http.StatusTooManyRequests)
		return
	}
	if err := d.ensureChannel(id); err != nil {
		w.Header().Set("Connection", "close")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// The feeder's wait for a buffer selects on the request context, which
	// the server cancels when the handler returns, so an aborted stream
	// never strands the goroutine.
	feed := wire.Feed(r.Context().Done(), wire.ScanLines(r.Body), 2)
	out := wire.NewLineWriter(w)
	pump := serve.Pump{Pool: d.pool, Channel: id, Window: d.obsWindow, In: feed, Out: out}
	seq, err := pump.Run()
	// A scanner failure (e.g. a line over the buffer cap) would otherwise
	// look like a cleanly completed stream; surface it as a final line.
	if err == nil && feed.Err() != nil {
		line, _ := wire.AppendDecision(nil, &wire.Decision{Channel: id, Seq: seq,
			Error: fmt.Sprintf("request stream aborted: %v", feed.Err())})
		out.WriteLine(line)
	}
}

// handleChannelSnapshot is the channel-migration endpoint pair: GET streams
// the channel's quiesced runtime snapshot (export), PUT attaches a channel
// restored from the uploaded snapshot (import). Together they move a live
// channel between daemons without losing its window, threshold adaptation
// or pending update samples.
func (d *daemon) handleChannelSnapshot(w http.ResponseWriter, r *http.Request, id string) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := d.pool.ExportChannel(id, w); err != nil {
			// Headers may already be out; a mid-stream failure surfaces as a
			// truncated body, which the importer's envelope check rejects.
			http.Error(w, err.Error(), statusForPoolErr(err))
		}
	case http.MethodPut:
		d.attachMu.Lock()
		defer d.attachMu.Unlock()
		if n := d.pool.Len(); n >= d.maxChannels {
			http.Error(w, fmt.Sprintf("channel limit reached (%d)", d.maxChannels), http.StatusServiceUnavailable)
			return
		}
		if err := d.pool.AttachSnapshot(id, http.MaxBytesReader(w, r.Body, maxSnapshotBytes)); err != nil {
			http.Error(w, err.Error(), statusForPoolErr(err))
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, "channel %q attached from snapshot\n", id)
	default:
		http.Error(w, "snapshot wants GET (export) or PUT (import)", http.StatusMethodNotAllowed)
	}
}

// maxSnapshotBytes caps an uploaded channel snapshot. A served detector
// snapshot is ~176 KB; the cap only has to stop a peer from feeding the
// decoder without end.
const maxSnapshotBytes = 64 << 20

// statusForPoolErr maps pool errors onto HTTP statuses.
func statusForPoolErr(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, serve.ErrChannelIDMismatch):
		// A snapshot whose manifest id disagrees with the URL id is a
		// malformed request, not a state conflict: reject before anything
		// attaches.
		return http.StatusBadRequest
	case errors.Is(err, serve.ErrUnknownChannel):
		return http.StatusNotFound
	case errors.Is(err, serve.ErrChannelExists):
		return http.StatusConflict
	case errors.Is(err, serve.ErrNotSnapshottable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, serve.ErrRejected):
		// Before ErrOverloaded, which it wraps: admission refused the
		// request and nothing was lost, so the client should retry.
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// handleSnapshot checkpoints every channel on demand (POST /snapshot) and
// returns the commit report.
func (d *daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "snapshot wants POST", http.StatusMethodNotAllowed)
		return
	}
	if d.snapshotDir == "" {
		http.Error(w, "snapshots disabled: start aovlisd with -snapshot-dir", http.StatusPreconditionFailed)
		return
	}
	rep, err := d.snapshotNow()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, rep)
}

// handleLedgerRoot publishes the verdict ledger's current head: batch and
// entry counts plus the chained Merkle root. Operators record the chained
// hash out-of-band and later hand it to `aovlisctl verify -expect-chained`
// — a ledger directory rewritten after the fact can then never verify.
func (d *daemon) handleLedgerRoot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "ledger root wants GET", http.StatusMethodNotAllowed)
		return
	}
	if d.ledger == nil {
		http.Error(w, "verdict ledger disabled: start aovlisd with -ledger-dir", http.StatusPreconditionFailed)
		return
	}
	writeJSON(w, d.ledger.Root())
}

// handleLedgerProof serves the Merkle inclusion proof for one committed
// verdict by ledger sequence. The proof is self-contained JSON — verify it
// offline with ledger.VerifyProof / aovlisctl, no trust in this daemon
// required beyond the out-of-band root.
func (d *daemon) handleLedgerProof(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "ledger proof wants GET", http.StatusMethodNotAllowed)
		return
	}
	if d.ledger == nil {
		http.Error(w, "verdict ledger disabled: start aovlisd with -ledger-dir", http.StatusPreconditionFailed)
		return
	}
	seq, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/ledger/proof/"), 10, 64)
	if err != nil {
		http.Error(w, "want /ledger/proof/{seq}", http.StatusBadRequest)
		return
	}
	p, err := d.ledger.Proof(seq)
	if errors.Is(err, ledger.ErrNotCommitted) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, p)
}

// handleList reports every channel's counters.
func (d *daemon) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "channels wants GET", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, d.pool.AllStats())
}

// handleHealth is the liveness endpoint.
func (d *daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	ps := d.pool.PoolStats()
	resp := map[string]interface{}{
		"status":         "ok",
		"uptime_seconds": int(time.Since(d.started).Seconds()),
		"pool":           ps,
	}
	if d.nodeID != "" {
		resp["node_id"] = d.nodeID
	}
	if d.snapshotDir != "" {
		resp["snapshot_dir"] = d.snapshotDir
		if ns := d.lastSnapshot.Load(); ns > 0 {
			resp["last_snapshot_age_seconds"] = int(time.Since(time.Unix(0, ns)).Seconds())
		}
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
