package cluster

import (
	"sync"
	"sync/atomic"
)

// entry is the router's ownership record for one channel. Observe streams
// register each in-flight segment against it; migration and failover flip
// it. The mutex+condvar protocol is the heart of "no accepted segment is
// lost":
//
//   - beginSegment parks while a migration is draining, so no new segment
//     can race past a drain onto the old owner;
//   - beginMigrate waits for inflight to reach zero, so every accepted
//     segment has been acknowledged by the old owner (and therefore lives
//     inside the exported snapshot) before the state moves;
//   - failover flips owner/epoch WITHOUT draining (the dead node cannot
//     acknowledge anything) — streams notice the epoch change and resubmit
//     their unacknowledged lines to the new owner.
//
// The epoch increments on every ownership change; a proxy holding an
// upstream connection from epoch k discovers staleness by comparing
// against the entry before each send.
type entry struct {
	id string

	mu        sync.Mutex
	cond      sync.Cond // signalled on flip and on inflight→0
	owner     *Node
	epoch     uint64
	migrating bool
	inflight  int

	// wseq is the highest channel sequence among the decisions relayed to
	// clients for this channel — the exact suffix boundary failover must
	// replay from the dead owner's journal: everything at or below it was
	// acknowledged AND delivered (so no stream will resubmit it), and
	// everything above it is still pending in some stream's window (so the
	// stream resubmits it to the new owner). A channel keeps one numbering
	// across owners, so the mark outlives ownership flips. Only a journal
	// the router can read (the node's shared -wal-dir) turns it into a replay.
	wseq atomic.Uint64
}

func newEntry(id string, owner *Node) *entry {
	e := &entry{id: id, owner: owner, epoch: 1}
	e.cond.L = &e.mu
	return e
}

// state returns the current (owner, epoch, migrating) triple.
func (e *entry) state() (*Node, uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.owner, e.epoch, e.migrating
}

// beginSegment registers one in-flight segment and returns the owner and
// epoch it is charged against. ok=false means a migration is draining: the
// caller must first drain its own pending acknowledgements (they hold
// inflight slots the migration is waiting on), then waitFlipped, then
// retry. It never blocks — blocking here while holding unread
// acknowledgements would deadlock the drain.
func (e *entry) beginSegment() (owner *Node, epoch uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.migrating {
		return nil, e.epoch, false
	}
	e.inflight++
	return e.owner, e.epoch, true
}

// endSegment releases one in-flight registration (the segment was
// acknowledged by its owner, or converted to a terminal error line).
func (e *entry) endSegment() {
	e.mu.Lock()
	e.inflight--
	if e.inflight <= 0 {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// waitFlipped blocks until the entry leaves the migrating state or its
// epoch moves past the given one. The caller must hold no in-flight
// registrations.
func (e *entry) waitFlipped(epoch uint64) {
	e.mu.Lock()
	for e.migrating && e.epoch == epoch {
		e.cond.Wait()
	}
	e.mu.Unlock()
}

// beginMigrate enters the draining state and blocks until every in-flight
// segment has been acknowledged, then returns the quiesced owner. ok=false
// means another migration already holds the entry.
func (e *entry) beginMigrate() (from *Node, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.migrating {
		return nil, false
	}
	e.migrating = true
	for e.inflight > 0 {
		e.cond.Wait()
	}
	return e.owner, true
}

// noteWseq raises the relayed-WAL-sequence high-water mark (monotonic
// CAS-max: delivery order and concurrent replays never lower it).
func (e *entry) noteWseq(w uint64) {
	for {
		cur := e.wseq.Load()
		if w <= cur || e.wseq.CompareAndSwap(cur, w) {
			return
		}
	}
}

// finishMigrate leaves the draining state. With a non-nil newOwner the
// ownership flips and the epoch advances; with nil the migration aborted
// and ownership stays put. Parked streams wake either way.
func (e *entry) finishMigrate(newOwner *Node) {
	e.mu.Lock()
	if newOwner != nil {
		e.owner.owned.Add(-1)
		newOwner.owned.Add(1)
		e.owner = newOwner
		e.epoch++
	}
	e.migrating = false
	e.cond.Broadcast()
	e.mu.Unlock()
}

// forceFlip reassigns ownership without draining — the failover path for a
// dead owner, which can never acknowledge its in-flight segments. Streams
// holding registrations against the old epoch keep them; they detect the
// flip on their next send (or on their broken upstream) and resubmit to
// the new owner.
func (e *entry) forceFlip(newOwner *Node) {
	e.mu.Lock()
	e.owner.owned.Add(-1)
	newOwner.owned.Add(1)
	e.owner = newOwner
	e.epoch++
	e.migrating = false
	e.cond.Broadcast()
	e.mu.Unlock()
}

// table maps channel ids to entries behind an atomic pointer: the routed
// hot path is one pointer load and one map read, with copy-on-write
// publication only when a channel is first seen.
type table struct {
	mu      sync.Mutex // serialises writers (entry creation)
	entries atomic.Pointer[map[string]*entry]
}

func newTable() *table {
	t := &table{}
	m := make(map[string]*entry)
	t.entries.Store(&m)
	return t
}

// get returns the entry for id, or nil if the channel has never been
// routed. Zero allocations.
func (t *table) get(id string) *entry {
	return (*t.entries.Load())[id]
}

// ensure returns the entry for id, creating and publishing one (owner
// chosen by place) under the writer lock on first sight. place runs under
// the lock so concurrent first-segments of different channels see each
// other's load contributions.
func (t *table) ensure(id string, place func(id string) (*Node, error)) (*entry, error) {
	if e := t.get(id); e != nil {
		return e, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.get(id); e != nil {
		return e, nil
	}
	owner, err := place(id)
	if err != nil {
		return nil, err
	}
	owner.owned.Add(1)
	cur := *t.entries.Load()
	next := make(map[string]*entry, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	e := newEntry(id, owner)
	next[id] = e
	t.entries.Store(&next)
	return e, nil
}

// snapshot returns the current entry set (shared map — read only).
func (t *table) snapshot() map[string]*entry {
	return *t.entries.Load()
}
