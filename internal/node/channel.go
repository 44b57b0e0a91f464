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

// attach is where a channel begins. With a nil snap it ensures id exists —
// the first observe on either plane and the journal replay come through
// here — attaching a fresh clone of the template, warm-started from the
// shared base when the node learns continually. With a snapshot stream it
// attaches the channel restored from it (the receive half of a migration)
// and fails if id is already attached.
func (n *Node) attach(id string, snap io.Reader) error {
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
		return n.pool.AttachSnapshot(id, snap)
	}
	det, err := n.template.Clone()
	if err != nil {
		return err
	}
	if n.base != nil {
		// A channel attached mid-stream starts from what its peers already
		// learned: parameters copied bit-exactly, optimizer state reset. It
		// keeps its own τ, filter and tier state — the base carries what
		// "normal" looks like, not one channel's calibration.
		if err := n.base.Seed(det.Model()); err != nil {
			return fmt.Errorf("warm start: %w", err)
		}
	}
	return n.pool.Attach(id, det)
}

// ensure is attach without a snapshot, in the shape the ingest planes'
// pre-stream step takes.
func (n *Node) ensure(id string) error { return n.attach(id, nil) }

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
// shared base (base ← (1−w)·base + w·channel) at a quiesced segment
// boundary (WithChannel), so the merge never races the channel's own
// scoring or retraining. Channels detached mid-sweep and a pool already
// closing are skipped silently.
func (n *Node) absorbAll() {
	for _, id := range n.pool.Channels() {
		err := n.pool.WithChannel(id, func(det serve.Detector) error {
			ad, ok := det.(*aovlis.Detector)
			if !ok {
				return nil // an alternative backend carries no weights to absorb
			}
			return n.base.Absorb(ad.Model(), n.cfg.AbsorbWeight)
		})
		if err != nil && !errors.Is(err, serve.ErrUnknownChannel) && !errors.Is(err, serve.ErrClosed) {
			n.cfg.Logf("aovlisd: absorb %s: %v", id, err)
		}
	}
}
