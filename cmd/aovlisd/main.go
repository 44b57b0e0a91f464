// Command aovlisd is the multi-channel AOVLIS detection daemon: it loads
// one trained detector (`aovlis -save model.bin` trains and saves one), then
// serves any number of live channels over HTTP, cloning the model per
// channel and scoring their segment features concurrently through a sharded
// serve.DetectorPool. The daemon is internal/node behind flags: node.Open
// is the boot order, node.Handler the routes below, Drain and Close the
// shutdown order.
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
//	                              snapshot and its floor (X-Aovlis-Resume)
//	PUT  /channels/{id}/snapshot  attach it (fresh if empty) at the floor
//	                              its X-Aovlis-Resume must name
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
// periodically folds every attached channel's adapted weights into the
// node's copy of the loaded template (weight -absorb-weight, cadence
// -absorb-every), and a channel attached mid-stream is a clone of that
// template instead of the cold training checkpoint — the fleet's consensus
// of "normal" transfers to newcomers, cutting their cold-start steps to the
// first stable verdict. Such a channel shares the template's weights until
// it first retrains, and keeps the template's τ.
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
//	aovlis -preset INF -train-sec 420 -save model.bin
//	aovlisd -load model.bin -addr :8080
//	aovlisd -load model.bin -shards 8 -queue 512
//	aovlisd -load model.bin -snapshot-dir /var/lib/aovlis -snapshot-every 30s
//
//	curl -N -XPOST --data-binary @features.ndjson \
//	    localhost:8080/channels/alice/observe
//	curl localhost:8080/channels/alice/stats
//	curl -XPOST localhost:8080/snapshot
//	curl -D alice.head localhost:8080/channels/alice/snapshot > alice.snap   # migrate out
//	curl -XPUT -H "$(grep -i x-aovlis-resume alice.head | tr -d '\r')" \
//	    --data-binary @alice.snap localhost:9090/channels/alice/snapshot
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aovlis"
	"aovlis/internal/node"
	"aovlis/internal/serve"
	"aovlis/internal/wire"
)

func main() {
	var (
		// Pool.Batch is serve's default, 16: the micro-batching cap and
		// both ingest planes' pipelining depth.
		cfg                         = node.Config{Pool: serve.DefaultConfig()}
		addr, loadPath              string
		fastMath, tiered, admission bool
	)
	flag.StringVar(&addr, "addr", ":8080", "listen address, host:port; the host is an IP literal, a name in /etc/hosts, or empty for every interface")
	flag.StringVar(&loadPath, "load", "", "the saved detector whose clones serve the channels (required; `aovlis -save` writes one)")
	flag.BoolVar(&fastMath, "fastmath", false, "accepted and ignored: the fast-math gate kernel is retired, and every detector scores on the exact one")
	flag.BoolVar(&tiered, "tiered", false, "enable bound-gated tier skipping: segments the anchor bound clears as normal skip the LSTM predict entirely (one-sided; flip rate gated by the root test harness)")
	flag.IntVar(&cfg.Pool.Shards, "shards", 4, "detector pool shards (worker goroutines)")
	flag.IntVar(&cfg.Pool.QueueDepth, "queue", 256, "per-shard ingest queue depth; a full queue makes its submitters wait")
	flag.IntVar(&cfg.MaxChannels, "max-channels", 1024, "maximum concurrently attached channels (each holds ~4 KB over the shared model weights, ~10 KB once it has scored: its own window rows; batch scratch is one lane set per shard, ~100 KB at 16-segment batches, BENCH.md §15; a channel of an EnableUpdate model ~320 KB once it has retrained: its own weights and its buffer's rows, BENCH.md §25)")
	flag.BoolVar(&cfg.Pprof, "pprof", false, "serve /debug/pprof profiling endpoints (BENCH.md §4); exposes process internals, enable only on trusted listeners")
	flag.BoolVar(&admission, "admission", true, "watermark-based overload control: reject submissions with HTTP 429 + Retry-After once a shard queue is 90% full, until every queue has drained to 1/4; accepted segments are always scored, in the configured mode")
	flag.StringVar(&cfg.SnapshotDir, "snapshot-dir", "", "crash-safe checkpoint directory: restore channels from it on boot, checkpoint into it periodically, on POST /snapshot and on graceful shutdown")
	flag.DurationVar(&cfg.SnapshotEvery, "snapshot-every", 0, "with -snapshot-dir: checkpoint every channel at this interval (0 disables periodic snapshots)")
	flag.StringVar(&cfg.NodeID, "node-id", "", "stable node identity reported by /healthz; an aovlisr router cross-checks it against its -nodes config so a stale port reuse can never masquerade as a fleet member")
	flag.StringVar(&cfg.WALDir, "wal-dir", "", "crash-proof ingest journal directory: every accepted observation is fsynced here before it is queued, and boot replays the journal tail so a kill -9 loses zero acknowledged segments (ARCHITECTURE.md §14)")
	flag.StringVar(&cfg.LedgerDir, "ledger-dir", "", "tamper-evident verdict ledger directory: every non-warmup verdict is appended to a Merkle-batched hash chain served at GET /ledger/root and /ledger/proof/{seq}, verifiable offline with aovlisctl verify")
	flag.IntVar(&cfg.LedgerBatch, "ledger-batch", node.DefaultLedgerBatch, "verdicts per committed ledger batch (each commit is one fsynced Merkle block)")
	flag.BoolVar(&cfg.Continual, "continual", false, "cross-channel continual learning: periodically fold every channel's adapted weights into the template (-absorb-every, -absorb-weight), so a newly attached channel, a clone of the template, starts from what its peers learned; it shares the template's weights until it retrains and keeps the template's τ (ARCHITECTURE.md §15)")
	flag.Float64Var(&cfg.AbsorbWeight, "absorb-weight", 0.25, "with -continual: per-absorb weight of the incoming channel in the template, in (0,1] — small keeps the template a slow fleet consensus")
	flag.DurationVar(&cfg.AbsorbEvery, "absorb-every", 30*time.Second, "with -continual: how often the absorb loop folds every channel into the template")
	flag.Parse()

	if fastMath {
		fmt.Fprintln(os.Stderr, "aovlisd: -fastmath is ignored: the fast-math gate kernel is retired, and scoring is exact")
	}
	if err := run(addr, loadPath, tiered, admission, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "aovlisd:", err)
		os.Exit(1)
	}
}

func run(addr, loadPath string, tiered, admission bool, cfg node.Config) error {
	if admission {
		cfg.Pool.Admission = serve.DefaultAdmissionConfig()
	}
	// Bind before anything else: a taken port fails here, before the node
	// opens its directories or anything is announced.
	l, err := wire.Listen(addr)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	defer l.Close()
	// The node's own lines — boot, checkpoints, faults — go to stderr.
	cfg.Logf = log.New(os.Stderr, "", 0).Printf
	template, err := loadTemplate(loadPath, tiered)
	if err != nil {
		return err
	}
	n, err := node.Open(template, cfg)
	if err != nil {
		return err
	}
	srv := &wire.Server{Handler: n.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	fmt.Printf("aovlisd listening on %s (%d shards, queue %d, τ = %.4f)\n",
		l.Addr(), cfg.Pool.Shards, cfg.Pool.QueueDepth, template.Tau())

	select {
	case err := <-errc:
		n.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("aovlisd: shutting down")
	n.Drain()
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return err
	}
	return n.Close()
}

// loadTemplate loads the saved detector whose clones serve the channels.
// -tiered overrides the scoring mode it was saved with; clones inherit the
// override.
func loadTemplate(path string, tiered bool) (*aovlis.Detector, error) {
	if path == "" {
		return nil, fmt.Errorf("-load is required: aovlisd serves a saved detector and does not train one (`aovlis -save model.bin` does)")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	det, err := aovlis.Load(f)
	if err != nil {
		return nil, err
	}
	mode := ""
	if tiered {
		mode = ", tiered scoring"
		if err := det.SetScoringMode(false, true); err != nil {
			return nil, err
		}
	}
	fmt.Printf("loaded detector from %s (τ = %.4f%s)\n", path, det.Tau(), mode)
	return det, nil
}
