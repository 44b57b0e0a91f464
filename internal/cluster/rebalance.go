package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aovlis/internal/snapshot/manifest"
	"aovlis/internal/wal"
	"aovlis/internal/wire"
)

// Move records one channel relocation in a rebalance or failover report.
type Move struct {
	Channel string `json:"channel"`
	From    string `json:"from"`
	To      string `json:"to"`
	// Warm is true when the channel's runtime state travelled with it
	// (live export/import, or a checkpoint restore during failover);
	// false means the channel restarts cold on the new owner.
	Warm bool `json:"warm"`
	// Replayed counts the dead owner's journaled observations re-applied
	// onto the new owner during failover (0 outside the WAL failover
	// path). With a complete replay the channel resumes bit-equal to an
	// undisturbed run instead of at its last checkpoint.
	Replayed int    `json:"replayed,omitempty"`
	Error    string `json:"error,omitempty"`
}

// RebalanceReport summarises one rebalance pass.
type RebalanceReport struct {
	Considered int    `json:"considered"`
	Moved      int    `json:"moved"`
	Failed     int    `json:"failed"`
	Moves      []Move `json:"moves,omitempty"`
}

func (rep RebalanceReport) writeJSON(j *wire.JSON) {
	j.Object()
	j.Key("considered").Int(int64(rep.Considered))
	j.Key("moved").Int(int64(rep.Moved))
	j.Key("failed").Int(int64(rep.Failed))
	if len(rep.Moves) > 0 {
		j.Key("moves").Array()
		for _, mv := range rep.Moves {
			mv.writeJSON(j)
		}
		j.EndArray()
	}
	j.EndObject()
}

func (mv Move) writeJSON(j *wire.JSON) {
	j.Object()
	j.Key("channel").String(mv.Channel)
	j.Key("from").String(mv.From)
	j.Key("to").String(mv.To)
	j.Key("warm").Bool(mv.Warm)
	if mv.Replayed != 0 {
		j.Key("replayed").Int(int64(mv.Replayed))
	}
	if mv.Error != "" {
		j.Key("error").String(mv.Error)
	}
	j.EndObject()
}

// Rebalance recomputes the canonical bounded-load placement of every
// routed channel over the currently-alive fleet and live-migrates each
// misplaced channel to its canonical owner:
//
//	drain    — entry enters the migrating state; streams stop pushing and
//	           acknowledge their in-flight segments (beginMigrate returns
//	           once inflight = 0, so everything accepted so far is inside
//	           the export)
//	export   — GET /channels/{id}/snapshot from the old owner (quiesces
//	           the channel server-side)
//	import   — PUT /channels/{id}/snapshot on the new owner (the id-match
//	           guard in serve.AttachSnapshot makes crossed streams a 400,
//	           not silent state corruption)
//	detach   — DELETE /channels/{id} on the old owner
//	flip     — entry republishes with the new owner and a bumped epoch;
//	           parked streams rotate their connections and continue
//
// Any failure before the flip aborts that channel's move with ownership
// unchanged (the import is verified before the old copy is detached, so
// state never exists in zero places). Rebalance serialises with failover
// under topoMu.
func (r *Router) Rebalance() (RebalanceReport, error) {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()

	entries := r.tbl.snapshot()
	ids := make([]string, 0, len(entries))
	for id := range entries {
		ids = append(ids, id)
	}
	rep := RebalanceReport{Considered: len(ids)}
	if len(ids) == 0 {
		return rep, nil
	}
	ring := r.ring.Load()
	target, err := ring.PlaceAll(ids)
	if err != nil {
		return rep, err
	}
	for _, id := range sortedKeys(target) {
		e := entries[id]
		cur, _, _ := e.state()
		wantName := target[id]
		if cur.Spec.Name == wantName {
			continue
		}
		if !cur.Alive() {
			// Dead owners are the failover path's job, not rebalance's.
			continue
		}
		to := r.byName[wantName]
		mv := r.moveChannel(e, to)
		rep.Moves = append(rep.Moves, mv)
		if mv.Error == "" {
			rep.Moved++
		} else {
			rep.Failed++
		}
	}
	return rep, nil
}

// moveChannel performs one drained live migration. Callers hold topoMu.
func (r *Router) moveChannel(e *entry, to *Node) Move {
	drainStart := time.Now()
	from, ok := e.beginMigrate()
	if !ok {
		return Move{Channel: e.id, To: to.Spec.Name, Error: "migration already in progress"}
	}
	r.m.drainWait.Observe(time.Since(drainStart).Seconds())
	mv := Move{Channel: e.id, From: from.Spec.Name, To: to.Spec.Name}

	export, err := from.exportSnapshot(e.id)
	switch {
	case err == errNoChannelState:
		// Nothing to carry: the flip alone completes the move and the new
		// owner cold-starts the channel from its template on first use.
		e.finishMigrate(to)
		r.m.migrations.Inc()
		return mv
	case err != nil:
		e.finishMigrate(nil)
		r.m.migrateFail.Inc()
		mv.Error = err.Error()
		return mv
	}
	err = to.putSnapshot(e.id, export)
	export.Close()
	if err != nil {
		e.finishMigrate(nil)
		r.m.migrateFail.Inc()
		mv.Error = err.Error()
		return mv
	}
	// The new owner has verified state; the old copy is now redundant. A
	// detach failure is logged but does not abort the flip — routing
	// moves on either way and the stale copy receives no further traffic.
	if err := from.deleteChannel(e.id); err != nil {
		r.cfg.Logf("cluster: post-migration detach of %q from %s: %v", e.id, from.Spec.Name, err)
	}
	e.finishMigrate(to)
	r.m.migrations.Inc()
	mv.Warm = true
	return mv
}

// FailoverReport summarises one node-death failover.
type FailoverReport struct {
	Node     string `json:"node"`
	Channels int    `json:"channels"`
	Warm     int    `json:"warm"`
	Cold     int    `json:"cold"`
	// Replayed totals the journaled observations re-applied from the dead
	// node's WAL across all of its channels (0 without a shared -wal-dir).
	Replayed int    `json:"replayed"`
	Moves    []Move `json:"moves,omitempty"`
}

// FailNode marks a node dead and re-places every channel it owned onto
// the survivors. For each channel the router first warm-restores the last
// checkpoint from the dead node's shared -snapshot-dir (when configured
// and the manifest names the channel), then — when the dead node's
// -wal-dir is shared too — replays the journal suffix between the
// checkpoint's floor and the highest wseq the router relayed for the
// channel onto the new owner, and only THEN flips ownership — so a parked
// stream that rotates onto the new owner finds the reconstructed window
// rather than racing the restore. Channels without a usable checkpoint
// cold-start from the node template on the new owner (unless their entire
// history is still in the journal, which replays them whole).
//
// Unlike a rebalance there is no drain — the dead node can acknowledge
// nothing — so ownership flips forcibly: streams detect the bumped epoch
// (or their broken connection) and resubmit every unacknowledged segment
// to the new owner. The relayed-wseq bound is what makes that compose to
// exactly-once: everything at or below it was delivered to a client (so
// no stream resubmits it — the replay is its only application), and
// everything above it is resubmitted (so the replay must not touch it).
// Channels whose replay completes therefore resume bit-equal to an
// undisturbed run. Without a shared WAL — or if the replay fails, or if
// the dead node had shed journaled segments (a dropped segment never
// advances the relayed wseq, but later acknowledged ones do) — the bound
// degrades to the previous contract: at-least-last-checkpoint, with the
// acknowledged post-checkpoint tail lost from model state.
func (r *Router) FailNode(name string) error {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()

	n := r.byName[name]
	if n == nil {
		return fmt.Errorf("cluster: unknown node %q", name)
	}
	if !n.Alive() {
		return nil
	}
	n.alive.Store(false)
	if err := r.rebuildRing(); err != nil {
		// No survivors: leave the node marked dead; streams fail their
		// segments with error lines when the failover budget runs out.
		return err
	}
	r.m.failovers.Inc()

	// Channels owned by the dead node, re-placed canonically over the
	// survivor ring.
	var orphans []string
	entries := r.tbl.snapshot()
	for id, e := range entries {
		if owner, _, _ := e.state(); owner == n {
			orphans = append(orphans, id)
		}
	}
	rep := FailoverReport{Node: name, Channels: len(orphans)}
	if len(orphans) == 0 {
		r.cfg.Logf("cluster: node %s failed over (owned no channels)", name)
		return nil
	}
	ring := r.ring.Load()
	target, err := ring.PlaceAll(orphans)
	if err != nil {
		return err
	}
	checkpoints := r.checkpointIndex(n)
	floors := make(map[string]uint64, len(checkpoints))
	for id, ref := range checkpoints {
		floors[id] = ref.walSeq
	}
	orphanSet := make(map[string]bool, len(orphans))
	for _, id := range orphans {
		orphanSet[id] = true
	}
	tails, reborn := r.journalTails(n, orphanSet, floors)
	for _, id := range sortedKeys(target) {
		to := r.byName[target[id]]
		mv := Move{Channel: id, From: name, To: to.Spec.Name}
		ref, hasCkpt := checkpoints[id]
		if seq, ok := reborn[id]; ok {
			// The journal holds a detach above the checkpoint's floor: the
			// checkpoint is of an incarnation that no longer exists, and this
			// one's history starts after the tombstone.
			hasCkpt, floors[id] = false, seq
		}
		if hasCkpt {
			if err := r.restoreFromFile(to, id, ref.file); err != nil {
				r.cfg.Logf("cluster: failover restore of %q onto %s: %v (cold start)", id, to.Spec.Name, err)
				mv.Error = err.Error()
			} else {
				mv.Warm = true
				rep.Warm++
				r.m.restored.Inc()
			}
		}
		// Journal replay: re-apply the acknowledged-and-delivered suffix
		// before the flip, so a rotating stream's resubmissions land on
		// fully reconstructed state. A failed replay leaves the channel at
		// its checkpoint — the pre-WAL contract, never worse.
		var reseed uint64
		if recs := r.replayableTail(id, tails[id], entries[id].wseq.Load(), floors[id], mv.Warm, hasCkpt); len(recs) > 0 {
			if _, maxW, err := to.replayObservations(id, recs); err != nil {
				r.cfg.Logf("cluster: failover journal replay of %q onto %s: %v (resuming at last checkpoint)", id, to.Spec.Name, err)
			} else {
				mv.Replayed = len(recs)
				rep.Replayed += len(recs)
				r.m.walReplayed.Add(uint64(len(recs)))
				reseed = maxW
			}
		}
		if !mv.Warm {
			rep.Cold++
		}
		entries[id].forceFlip(to)
		if reseed > 0 {
			// The replayed records now live in the NEW owner's journal under
			// its own numbering; reseed the relay tracker (post-flip, so the
			// reset cannot clobber it) for a future failover of that owner.
			entries[id].noteWseq(reseed)
		}
		r.m.failedOver.Inc()
		rep.Moves = append(rep.Moves, mv)
	}
	r.cfg.Logf("cluster: node %s failed over: %d channels re-placed (%d warm, %d cold, %d observations replayed)",
		name, rep.Channels, rep.Warm, rep.Cold, rep.Replayed)
	return nil
}

// journalTails reads the dead node's shared ingest journal (read-only —
// ScanDir never modifies the directory and stops silently at a torn tail,
// the expected kill -9 artifact) and returns each orphaned channel's
// records above its checkpointed floor, in journal order. A tail never
// crosses a detach: at a tombstone the records gathered so far belong to an
// incarnation that is gone, so the tail restarts empty and reborn records
// the tombstone's sequence — the floor of whatever follows. Any problem
// degrades to an empty tail — the at-least-last-checkpoint bound — never
// to a failover error.
func (r *Router) journalTails(n *Node, orphans map[string]bool, floors map[string]uint64) (tails map[string][]wal.Record, reborn map[string]uint64) {
	dir := n.Spec.WALDir
	if dir == "" {
		return nil, nil
	}
	tails, reborn = make(map[string][]wal.Record), make(map[string]uint64)
	if err := wal.ScanDir(dir, func(rec wal.Record) error {
		switch {
		case !orphans[rec.Channel] || rec.Seq <= floors[rec.Channel]:
		case rec.Tombstone():
			delete(tails, rec.Channel)
			reborn[rec.Channel] = rec.Seq
		default:
			tails[rec.Channel] = append(tails[rec.Channel], rec)
		}
		return nil
	}); err != nil {
		r.cfg.Logf("cluster: scanning journal of %s in %s: %v (failover degrades to last checkpoint)", n.Spec.Name, dir, err)
		return nil, nil
	}
	return tails, reborn
}

// replayableTail bounds one channel's journal tail to the records
// failover may re-apply: at or below the relayed-wseq boundary (above it,
// streams resubmit — replaying would double-apply), contiguous from the
// state the new owner actually holds: floor is the restored checkpoint's,
// or for a cold channel where its whole history starts — 0, or the
// tombstone its incarnation follows. Any gap disqualifies the replay
// entirely — applying a wrong suffix would corrupt state rather than
// merely losing a tail.
func (r *Router) replayableTail(id string, recs []wal.Record, boundary, floor uint64, warm, hasCkpt bool) []wal.Record {
	if len(recs) == 0 || boundary == 0 {
		return nil
	}
	if !warm && hasCkpt {
		// A checkpoint exists but failed to restore: splicing the journal
		// tail onto a cold template would score garbage.
		return nil
	}
	next := floor + 1
	var out []wal.Record
	for _, rec := range recs {
		if rec.Seq > boundary {
			break
		}
		if rec.Seq != next {
			r.cfg.Logf("cluster: journal tail of %q is not contiguous (have seq %d, want %d); skipping replay", id, rec.Seq, next)
			return nil
		}
		out = append(out, rec)
		next++
	}
	if next <= boundary {
		// The journal ends short of a sequence the router delivered to a
		// client — only possible if the shared directory is stale or wrong,
		// since nodes fsync before acknowledging. Replay the prefix anyway
		// (closest achievable state) but say so loudly.
		r.cfg.Logf("cluster: journal of %q ends at seq %d but seq %d was relayed; shared -wal-dir stale?", id, next-1, boundary)
	}
	return out
}

// checkpointRef is one verified checkpoint: the snapshot file to restore
// and the WAL floor it covers (the highest journal sequence already folded
// into the checkpointed state — journal replay starts above it).
type checkpointRef struct {
	file   string
	walSeq uint64
}

// checkpointIndex reads the dead node's shared snapshot directory manifest
// and returns channel → verified checkpoint reference. Missing dir, missing
// manifest or corrupt entries degrade to cold starts, never to errors.
func (r *Router) checkpointIndex(n *Node) map[string]checkpointRef {
	dir := n.Spec.SnapshotDir
	if dir == "" {
		return nil
	}
	man, err := manifest.Read(dir)
	if err != nil {
		r.cfg.Logf("cluster: no usable checkpoint manifest for %s in %s: %v", n.Spec.Name, dir, err)
		return nil
	}
	out := make(map[string]checkpointRef, len(man.Channels))
	for _, ce := range man.Channels {
		if err := manifest.Verify(dir, ce); err != nil {
			r.cfg.Logf("cluster: checkpoint for %q fails verification: %v", ce.ID, err)
			continue
		}
		out[ce.ID] = checkpointRef{file: filepath.Join(dir, ce.File), walSeq: ce.WALSeq}
	}
	return out
}

// restoreFromFile uploads a checkpoint file as the channel's state on the
// new owner.
func (r *Router) restoreFromFile(to *Node, id, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return to.putSnapshot(id, f)
}

// sortedKeys returns a map's keys in sorted order so reports and restore
// sequences are deterministic.
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
