package node

import (
	"errors"
	"fmt"
	"io"

	"aovlis"
	"aovlis/internal/serve"
)

// errChannelLimit refuses a channel beyond MaxChannels.
var errChannelLimit = errors.New("channel limit reached")

// errForeignConfig refuses an imported detector whose model configuration
// is not the template's: every channel of a node is a copy of one trained
// model, and each distinct configuration would pin its own per-
// configuration scratch (core.PerConfig) for the life of the process. A
// model registers its configuration when it first runs, so a refused
// upload, decoded and dropped, registers none.
var errForeignConfig = errors.New("snapshot's model configuration is not the node's")

// attach is where a channel begins, numbered on from seq (serve.AttachAt).
// With a nil snap it ensures id exists — the first observe on either plane,
// the journal replay and an empty import come through here — attaching a
// fresh clone of the template: its weights shared copy-on-write until it first
// retrains, a fresh optimiser, the template's τ. On a continual node the
// template is the base the absorb loop moves, so a fresh channel starts
// from what its peers learned. With a snapshot stream it attaches the
// channel restored from it (the receive half of a migration) and fails if
// id is already attached or the restored model's configuration is not the
// template's; a refused upload attaches and journals nothing.
func (n *Node) attach(id string, snap io.Reader, seq uint64) error {
	n.attachMu.Lock()
	defer n.attachMu.Unlock()
	if snap == nil {
		if _, err := n.pool.Stats(id); err == nil {
			return nil
		}
	}
	if n.pool.Len() >= n.cfg.MaxChannels {
		return fmt.Errorf("%w (%d)", errChannelLimit, n.cfg.MaxChannels)
	}
	if snap != nil {
		det, err := serve.DecodeSnapshot(id, snap)
		if err != nil {
			return err
		}
		if got, want := det.Model().Config(), n.template.Model().Config(); got != want {
			return fmt.Errorf("%w: got %+v, want %+v", errForeignConfig, got, want)
		}
		return n.pool.AttachAt(id, det, seq)
	}
	n.templateMu.Lock()
	det, err := n.template.Clone()
	n.templateMu.Unlock()
	if err != nil {
		return err
	}
	return n.pool.AttachAt(id, det, seq)
}

// ensure is attach without a snapshot at sequence 0, in the shape the
// ingest planes' pre-stream step takes.
func (n *Node) ensure(id string) error { return n.attach(id, nil, 0) }

// detach is where a channel ends — the last step of a router-driven
// migration: the new owner holds the imported state, so the old copy must
// stop existing everywhere it could diverge or come back from. The pool
// forgets it (journaling a tombstone first when there is a journal, so
// neither a restart nor a failover replays it back and checkpoints stop
// keeping its segments), and the hub drops its resume ring and cuts the
// live session bound to it.
func (n *Node) detach(id string) error {
	if err := n.pool.Detach(id); err != nil {
		return err
	}
	n.hub.Forget(id)
	return nil
}

// absorbAll runs one absorb sweep: each channel's weights merge into the
// template (template ← (1−w)·template + w·channel) at a quiesced segment
// boundary (WithChannel), so the merge never races the channel's own
// scoring or retraining. The template's first write after a clone copies
// its arrays out (copy-on-write), so channels cloned earlier keep theirs.
// Channels detached mid-sweep and a pool already closing are skipped
// silently.
func (n *Node) absorbAll() {
	for _, id := range n.pool.Channels() {
		err := n.pool.WithChannel(id, func(det *aovlis.Detector) error {
			if det == nil {
				return nil // a bare scorer carries no weights to absorb
			}
			n.templateMu.Lock()
			defer n.templateMu.Unlock()
			// Merge(other, w) keeps w·self + (1−w)·other.
			return n.template.Model().Merge(det.Model(), 1-n.cfg.AbsorbWeight)
		})
		if err != nil && !errors.Is(err, serve.ErrUnknownChannel) && !errors.Is(err, serve.ErrClosed) {
			n.cfg.Logf("aovlisd: absorb %s: %v", id, err)
		}
	}
}
