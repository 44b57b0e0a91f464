// Package node is one AOVLIS serving node as a value: the detector pool,
// the live hub, the verdict sinks, the ingest journal and the verdict
// ledger, put together by Open in the one order that is safe to boot in,
// served by Handler, and taken apart by Drain and Close in the one order
// that is safe to stop in. cmd/aovlisd is this package behind flags; tests
// and examples open the same node the daemon runs.
//
// A channel begins and ends here too: attach creates it (a template clone
// on first use, or an imported snapshot) and detach retires it from every
// store that keeps per-channel state — the pool, the journal (a tombstone)
// and the hub's resume ring.
package node

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"aovlis"
	"aovlis/internal/ledger"
	"aovlis/internal/serve"
	"aovlis/internal/snapshot/manifest"
	"aovlis/internal/stream/liveplane"
	"aovlis/internal/wal"
)

// DefaultLedgerBatch is the -ledger-batch default.
const DefaultLedgerBatch = ledger.DefaultBatchSize

// Config is a node's configuration; each field is the aovlisd flag named
// beside it.
type Config struct {
	// Pool is the detector pool's shape: -shards, -queue and -admission,
	// with Batch at serve.DefaultConfig's 16 in aovlisd. A full shard queue
	// always waits; admission control is the only overload refusal. Batch
	// is also both ingest planes' pipelining depth: up to that many
	// segments of one stream are in flight at once, which is what feeds the
	// shard micro-batcher a real backlog.
	Pool serve.Config
	// MaxChannels (-max-channels) bounds the attached channels.
	MaxChannels int
	// NodeID (-node-id) is the identity /healthz reports.
	NodeID string
	// SnapshotDir (-snapshot-dir) is the checkpoint directory: restored
	// from on Open, written every SnapshotEvery (-snapshot-every, 0 = no
	// periodic checkpoints), on POST /snapshot and on Close.
	SnapshotDir   string
	SnapshotEvery time.Duration
	// WALDir (-wal-dir) is the ingest journal directory.
	WALDir string
	// LedgerDir (-ledger-dir) is the verdict ledger directory; LedgerBatch
	// (-ledger-batch) the verdicts per committed Merkle batch.
	LedgerDir   string
	LedgerBatch int
	// Continual (-continual) folds every channel's weights into the
	// node's template at weight AbsorbWeight (-absorb-weight) every
	// AbsorbEvery (-absorb-every), so new channels, which are clones of
	// the template, start from what their peers learned.
	Continual    bool
	AbsorbWeight float64
	AbsorbEvery  time.Duration
	// Pprof (-pprof) and Metrics (-metrics) mount /debug/pprof/ and
	// /metrics.
	Pprof   bool
	Metrics bool
	// Logf receives the node's boot, checkpoint and fault lines (nil →
	// log.Printf).
	Logf func(format string, args ...any)
}

// validate reports the first setting the node cannot run with, naming it
// by its flag.
func (c Config) validate() error {
	switch {
	case c.SnapshotEvery < 0 || (c.SnapshotEvery > 0 && c.SnapshotDir == ""):
		return fmt.Errorf("-snapshot-every needs -snapshot-dir and a non-negative interval")
	case c.LedgerDir != "" && c.LedgerBatch < 1:
		return fmt.Errorf("-ledger-batch must be at least 1")
	case c.Continual && (c.AbsorbWeight <= 0 || c.AbsorbWeight > 1):
		return fmt.Errorf("-absorb-weight %g outside (0,1]", c.AbsorbWeight)
	case c.Continual && c.AbsorbEvery <= 0:
		return fmt.Errorf("-continual needs a positive -absorb-every")
	}
	return nil
}

// Node is one serving node. Open builds it; Handler serves it; Drain then
// Close stop it.
type Node struct {
	cfg      Config
	template *aovlis.Detector
	pool     *serve.DetectorPool
	started  time.Time

	// hub is the live plane's shared state: per-channel resume rings for
	// the WebSocket ingest endpoint and the SSE watch fan-out. Every scored
	// verdict reaches it through the pool's verdict sink.
	hub *liveplane.Hub

	// wal is the ingest journal (nil without WALDir): submit fsyncs every
	// accepted observation into it before queueing, and a checkpoint
	// truncates it up to the committed per-channel floors.
	wal *wal.Log

	// ledger is the tamper-evident verdict log (nil without LedgerDir), fed
	// by the pool's verdict sink and flushed on every checkpoint.
	ledger *ledger.Ledger

	// lastSnapshot is the UnixNano of the last successful checkpoint (0 if
	// none), reported by /healthz.
	lastSnapshot atomic.Int64

	// snapMu serialises checkpoints into SnapshotDir: the periodic loop,
	// POST /snapshot and Close's final one must never interleave
	// (concurrent Snapshots into one directory race on the manifest).
	snapMu sync.Mutex

	// attachMu serialises channel creation so concurrent first-observes of
	// one id clone the template exactly once, and the channel limit is
	// checked and taken in one step.
	attachMu sync.Mutex

	// templateMu orders the absorb loop's writes to the template against
	// attach's clones of it (Clone must not overlap a mutation of its
	// source). It is held around one Clone or one Merge and nothing else,
	// so the absorb loop may take it inside a shard's WithChannel.
	templateMu sync.Mutex

	// stop ends the snapshot and absorb loops; loops waits them out.
	stop  chan struct{}
	loops sync.WaitGroup
}

// Open boots a node whose channels are clones of template. The order is
// the durability contract (ARCHITECTURE.md §14): restore the pool from the
// snapshot directory (or start empty, or refuse an unreadable one), open
// the ledger, attach the verdict sinks — before the replay, so replayed
// verdicts are ledgered and published too — replay the journal tail above
// the checkpoint floors, attach the journal, and only then start the
// loops; the caller may serve Handler as soon as Open returns.
func Open(template *aovlis.Detector, cfg Config) (*Node, error) {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pool, floors, err := restoreOrNew(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Continual {
		// The absorb loop writes the template's weights: the node takes its
		// own copy-on-write clone, so the caller's detector never moves.
		if template, err = template.Clone(); err != nil {
			pool.Close()
			return nil, err
		}
	}
	n := &Node{cfg: cfg, template: template, pool: pool, started: time.Now(),
		hub: liveplane.NewHub(), stop: make(chan struct{})}
	if err := n.openLedger(); err != nil {
		pool.Close()
		return nil, err
	}
	n.attachVerdictSinks()
	if err := n.openWAL(floors); err != nil {
		pool.Close()
		n.closeDurability()
		return nil, err
	}
	if cfg.SnapshotEvery > 0 {
		n.every(cfg.SnapshotEvery, func() {
			if _, err := n.checkpoint(); err != nil {
				cfg.Logf("aovlisd: periodic snapshot failed: %v", err)
			}
		})
	}
	if cfg.Continual {
		n.every(cfg.AbsorbEvery, n.absorbAll)
		cfg.Logf("continual learning: absorbing channels into the template every %s at weight %g",
			cfg.AbsorbEvery, cfg.AbsorbWeight)
	}
	return n, nil
}

// restoreOrNew warm-restarts the pool from the snapshot directory when one
// is committed there — returning with it each restored channel's journal
// floor, the sequence its checkpoint covers — and starts empty only when no
// snapshot exists yet. Any other manifest problem (corruption, permissions)
// aborts boot: silently cold-starting would let the next periodic
// checkpoint overwrite the still-recoverable previous state.
func restoreOrNew(cfg Config) (*serve.DetectorPool, map[string]uint64, error) {
	floors := make(map[string]uint64)
	if cfg.SnapshotDir != "" {
		switch m, err := manifest.Read(cfg.SnapshotDir); {
		case err == nil:
			pool, err := serve.RestorePool(cfg.SnapshotDir, m, cfg.Pool)
			if err != nil {
				return nil, nil, fmt.Errorf("restoring pool from %s: %w", cfg.SnapshotDir, err)
			}
			for _, e := range m.Channels {
				floors[e.ID] = e.WALSeq
			}
			cfg.Logf("warm restart: restored %d channels from %s", pool.Len(), cfg.SnapshotDir)
			return pool, floors, nil
		case errors.Is(err, fs.ErrNotExist):
			// First boot into this directory: start empty.
		default:
			return nil, nil, fmt.Errorf("snapshot dir %s is present but unreadable (fix or remove it before booting): %w", cfg.SnapshotDir, err)
		}
	}
	pool, err := serve.NewDetectorPool(cfg.Pool)
	return pool, floors, err
}

// every runs fn at the given cadence until Close.
func (n *Node) every(d time.Duration, fn func()) {
	n.loops.Add(1)
	go func() {
		defer n.loops.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// Pool is the node's detector pool, for callers that drive or inspect it
// in process beside the HTTP surface.
func (n *Node) Pool() *serve.DetectorPool { return n.pool }

// Drain cuts the connections a wire.Server cannot drain on its own —
// hijacked WebSocket connections are invisible to Shutdown, and an SSE
// watch stream never ends by itself — and refuses new ones: every live
// handler unblocks, drains its in-flight submissions into the resume ring
// and returns, and only then can the listener's own drain finish. Call it
// before wire.Server.Shutdown, and Close after.
func (n *Node) Drain() { n.hub.Close() }

// Close is the rest of the shutdown order, for after the listener has
// drained (no more submissions; a caller whose listener never came up
// need not Drain first): stop the loops; write the final
// checkpoint — a graceful shutdown is always warm-restartable — whose
// mutex waits out a periodic one still in flight; then the pool (which
// stops the shard workers, so no append or verdict can race the closes),
// then the ledger (Close flushes the pending batch), then the journal.
func (n *Node) Close() error {
	n.hub.Close()
	close(n.stop)
	n.loops.Wait()
	if n.cfg.SnapshotDir != "" {
		if rep, err := n.checkpoint(); err != nil {
			n.cfg.Logf("aovlisd: final snapshot failed: %v", err)
		} else {
			n.cfg.Logf("final snapshot: %d channels, %d bytes in %s", rep.Channels, rep.Bytes, rep.Elapsed)
		}
	}
	err := n.pool.Close()
	return errors.Join(err, n.closeDurability())
}
