package node

import (
	"errors"
	"fmt"
	"time"

	"aovlis"
	"aovlis/internal/ledger"
	"aovlis/internal/metrics"
	"aovlis/internal/serve"
	"aovlis/internal/stream/liveplane"
	"aovlis/internal/wal"
	"aovlis/internal/wire"
)

// openLedger opens the verdict ledger. Boot refuses a ledger that fails
// its own chain verification — appending to a tampered or truncated chain
// would silently launder it.
func (n *Node) openLedger() error {
	if n.cfg.LedgerDir == "" {
		return nil
	}
	reg := n.pool.Metrics()
	commits := reg.Counter("aovlis_ledger_commits_total",
		"Committed Merkle batches appended to the verdict ledger.")
	entries := reg.Counter("aovlis_ledger_entries_total",
		"Verdicts committed to the ledger across all batches.")
	led, err := ledger.Open(n.cfg.LedgerDir, ledger.Options{
		BatchSize: n.cfg.LedgerBatch,
		OnCommit:  func(k int) { commits.Inc(); entries.Add(uint64(k)) },
	})
	if err != nil {
		return fmt.Errorf("opening verdict ledger %s: %w", n.cfg.LedgerDir, err)
	}
	n.ledger = led
	head := led.Root()
	n.cfg.Logf("verdict ledger %s: %d batches, %d entries, head %.16s…",
		n.cfg.LedgerDir, head.Batches, head.Entries, head.Chained)
	return nil
}

// openWAL opens the ingest journal, replays its tail through the pool and
// attaches it to the accept path. Records at or below a channel's floor —
// the restored manifest's WALSeq — were already restored by the snapshot
// and are skipped; everything above it is re-applied in journal
// order, recreating never-checkpointed channels on the fly — and detaching
// a channel again where the journal says it was detached, which drops
// whatever the snapshot restored or earlier records rebuilt for it, along
// with its floor: records after a tombstone are a new incarnation's.
func (n *Node) openWAL(floors map[string]uint64) error {
	if n.cfg.WALDir == "" {
		return nil
	}
	fsync := n.pool.Metrics().Histogram("aovlis_wal_fsync_seconds",
		"Latency of WAL group-commit fsyncs.", metrics.ExpBuckets(1e-6, 2, 23))
	j, err := wal.Open(n.cfg.WALDir, wal.Options{FsyncObserve: fsync.Observe})
	if err != nil {
		return fmt.Errorf("opening ingest WAL %s: %w", n.cfg.WALDir, err)
	}
	replayed, skipped := 0, 0
	if err := j.Replay(func(r wal.Record) error {
		if r.Seq <= floors[r.Channel] {
			skipped++
			return nil
		}
		replayed++
		if r.Tombstone() {
			delete(floors, r.Channel)
			if err := n.pool.Detach(r.Channel); err != nil && !errors.Is(err, serve.ErrUnknownChannel) {
				return fmt.Errorf("detaching channel %s at seq %d: %w", r.Channel, r.Seq, err)
			}
			return nil
		}
		if err := n.attach(r.Channel, nil, 0); err != nil {
			return fmt.Errorf("recreating channel %s: %w", r.Channel, err)
		}
		if _, err := n.pool.ReplayObserve(r.Channel, r.Seq, r.Action, r.Audience); err != nil {
			return fmt.Errorf("channel %s seq %d: %w", r.Channel, r.Seq, err)
		}
		return nil
	}); err != nil {
		j.Close()
		return fmt.Errorf("replaying ingest WAL %s: %w", n.cfg.WALDir, err)
	}

	// A restored channel is already numbered from its checkpoint's floor.
	n.pool.AttachJournal(j, j.MaxSeqs())
	n.wal = j
	n.cfg.Logf("ingest WAL %s: replayed %d records (%d below checkpoint floors) across %d segments",
		n.cfg.WALDir, replayed, skipped, j.Segments())
	return nil
}

// closeDurability closes the ledger (flushing its pending batch) and the
// journal; callers run it after the pool has stopped.
func (n *Node) closeDurability() error {
	var errs []error
	if n.ledger != nil {
		if err := n.ledger.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing verdict ledger: %w", err))
		}
	}
	if n.wal != nil {
		if err := n.wal.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing ingest WAL: %w", err))
		}
	}
	return errors.Join(errs...)
}

// attachVerdictSinks wires the pool's verdict sink as a fan-out: the live
// watch hub always receives every verdict (the SSE dashboard works with or
// without durability), and the ledger receives them first when enabled.
func (n *Node) attachVerdictSinks() {
	if n.ledger == nil {
		n.pool.AttachVerdictSink(watchSink{n.hub})
		return
	}
	n.pool.AttachVerdictSink(fanoutSink{ledgerSink{n.ledger, n.cfg.Logf}, watchSink{n.hub}})
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
// so this is safe on the scoring path. The line is encoded on the stack —
// Publish copies it into the ring — so a verdict costs no allocation.
type watchSink struct{ hub *liveplane.Hub }

func (s watchSink) Record(channel string, channelSeq uint64, res aovlis.Result) {
	d := wire.Decision{Channel: channel, Seq: channelSeq, WSeq: channelSeq}
	serve.SetResult(&d, res)
	var buf [256]byte
	b, err := wire.AppendDecision(buf[:0], &d)
	if err != nil {
		return
	}
	s.hub.Publish(channel, b[:len(b)-1])
}

// ledgerSink adapts the verdict ledger to the pool's VerdictSink. The
// ledger serialises appends internally; an append error is logged, and
// surfaces again when the node checkpoints (Flush) — the hot path must not
// block scoring on ledger I/O diagnostics.
type ledgerSink struct {
	led  *ledger.Ledger
	logf func(format string, args ...any)
}

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
		s.logf("aovlisd: ledger append (channel %s seq %d): %v", channel, channelSeq, err)
	}
}

// checkpoint runs one serialised checkpoint into the snapshot directory.
// All checkpoint paths (periodic loop, POST /snapshot, Close's final one)
// go through here so they can never interleave in the directory.
func (n *Node) checkpoint() (serve.Report, error) {
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	rep, err := n.pool.Snapshot(n.cfg.SnapshotDir)
	if err != nil {
		return rep, err
	}
	n.lastSnapshot.Store(time.Now().UnixNano())
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
	if n.ledger != nil {
		if err := n.ledger.Flush(); err != nil {
			n.cfg.Logf("aovlisd: ledger flush after snapshot: %v", err)
			return rep, nil
		}
	}
	if n.wal != nil {
		// rep.Floors covers the committed channels up to their manifest
		// floors and the retired ids up to their tombstones — without the
		// latter a segment holding a detached channel's record would be
		// kept forever.
		if _, err := n.wal.Truncate(rep.Floors); err != nil {
			n.cfg.Logf("aovlisd: truncating ingest WAL: %v", err)
		}
	}
	return rep, nil
}
