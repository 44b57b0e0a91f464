package liveplane

import (
	"fmt"
	"io"
	"strconv"
	"sync"

	"aovlis/internal/wire"
)

// Hub is the live layer's shared state: one bounded decision ring per
// channel (the WebSocket resume buffer) and one global event ring fanned
// out to SSE dashboard subscribers (GET /watch, Last-Event-ID reconnect).
//
// The rings are the reconnect story's in-memory half: a connection drop
// loses only bytes in flight, and the ring replays them. Process death
// loses the rings too — there the WAL floor (X-Aovlis-Resume) keeps
// accepted segments from being resent, and verdicts that were never
// delivered remain recoverable from the verdict ledger offline.
type Hub struct {
	mu       sync.Mutex
	chans    map[string]*chanState
	watch    ring[watchEvent]
	watchCap int
	nextID   uint64
	subs     map[*Watcher]struct{}
	closed   bool
	ringCap  int
	subBuf   int
}

// HubConfig sizes the hub's rings.
type HubConfig struct {
	// RingCap bounds each channel's resume ring (default 1024 decisions).
	RingCap int
	// WatchCap bounds the SSE replay ring (default 1024 events).
	WatchCap int
	// SubBuf is each SSE subscriber's buffer; a subscriber that falls this
	// far behind is disconnected rather than allowed to backpressure the
	// scoring path (default 256).
	SubBuf int
}

// NewHub builds an empty hub.
func NewHub(cfg HubConfig) *Hub {
	if cfg.RingCap <= 0 {
		cfg.RingCap = 1024
	}
	if cfg.WatchCap <= 0 {
		cfg.WatchCap = 1024
	}
	if cfg.SubBuf <= 0 {
		cfg.SubBuf = 256
	}
	return &Hub{
		chans:    make(map[string]*chanState),
		watchCap: cfg.WatchCap,
		ringCap:  cfg.RingCap,
		subBuf:   cfg.SubBuf,
		subs:     make(map[*Watcher]struct{}),
	}
}

// chanState is one channel's live-side state.
type chanState struct {
	active bool
	conn   io.Closer // bound connection of the active session (may be nil)
	last   uint64    // highest appended decision seq
	ring   ring[wire.Decision]
}

// ring retains the newest entries pushed into it, up to a capacity: it fills
// until full, then overwrites the oldest in place, so a push never moves the
// other entries.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest entry; 0 until the ring is full
}

// next returns the slot the next entry goes in: a new one while the ring
// fills, then the oldest entry's, still holding it — which is what lets a
// slot's buffers be reused. The backing array is allocated at full capacity
// by the first push, once, rather than doubled into by append.
func (r *ring[T]) next(capacity int) *T {
	if len(r.buf) < capacity {
		if r.buf == nil {
			r.buf = make([]T, 0, capacity)
		}
		r.buf = r.buf[:len(r.buf)+1]
		return &r.buf[len(r.buf)-1]
	}
	slot := &r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	return slot
}

// at returns the k-th retained entry, oldest first.
func (r *ring[T]) at(k int) *T { return &r.buf[(r.head+k)%len(r.buf)] }

// collect returns the retained entries that keep accepts, oldest first.
func (r *ring[T]) collect(keep func(*T) bool) []T {
	var out []T
	for _, part := range [2][]T{r.buf[r.head:], r.buf[:r.head]} {
		for i := range part {
			if keep(&part[i]) {
				out = append(out, part[i])
			}
		}
	}
	return out
}

// watchEvent is one slot of the watch ring. Its payload buffer is the
// slot's own: a publish that overwrites the slot copies into it.
type watchEvent struct {
	id      uint64
	channel string
	payload []byte
}

// Watcher is one SSE subscriber. Publish only counts what the subscriber
// is owed and wakes it; the subscriber copies its events out of the ring
// itself (Next), under the hub's lock, so it never reads a slot that is
// being overwritten and a slow one costs the scoring path nothing. Its
// fields are guarded by the hub's mu.
type Watcher struct {
	h       *Hub
	wake    chan struct{} // capacity 1; closed once the subscriber is gone
	channel string        // filter; "" = all
	next    uint64        // first event id not yet copied out
	owed    int           // events published for it since its last copy-out
	gone    bool          // hub closed, or the subscriber fell too far behind
}

// Errors the session API returns.
var (
	ErrHubClosed   = fmt.Errorf("live: hub closed")
	ErrChannelBusy = fmt.Errorf("live: channel already has an active live connection")
)

// Session is a channel's exclusive live-producer handle: one per channel
// at a time, so decision sequences stay totally ordered per channel.
type Session struct {
	h  *Hub
	id string
	st *chanState
}

// Acquire claims the channel's producer slot. A second concurrent live
// connection is refused — per-connection resume only composes with a
// single totally-ordered decision stream per channel.
func (h *Hub) Acquire(channel string) (*Session, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrHubClosed
	}
	st := h.chans[channel]
	if st == nil {
		st = &chanState{}
		h.chans[channel] = st
	}
	if st.active {
		return nil, ErrChannelBusy
	}
	st.active = true
	st.conn = nil
	return &Session{h: h, id: channel, st: st}, nil
}

// Bind attaches the session's connection so Hub.Close can cut it — the
// race-clean-teardown half of the contract: shutdown closes every bound
// connection, which unblocks every handler's read loop.
func (s *Session) Bind(c io.Closer) {
	s.h.mu.Lock()
	s.st.conn = c
	s.h.mu.Unlock()
}

// Release frees the channel's producer slot.
func (s *Session) Release() {
	s.h.mu.Lock()
	s.st.active = false
	s.st.conn = nil
	s.h.mu.Unlock()
}

// Last returns the channel's highest appended decision seq.
func (s *Session) Last() uint64 {
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	return s.st.last
}

// Append rings an accepted decision under its Seq (strictly increasing per
// channel) for resume replay. The ring keeps the decision itself, not its
// encoded line: Replay re-encodes it to the same bytes.
func (s *Session) Append(d *wire.Decision) error {
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	if d.Seq <= s.st.last {
		return fmt.Errorf("live: non-monotonic decision seq %d (last %d) on %s", d.Seq, s.st.last, s.id)
	}
	s.st.last = d.Seq
	*s.st.ring.next(s.h.ringCap) = *d
	return nil
}

// Replay walks the retained decisions with seq > after, oldest first,
// handing fn each one's line as wire.AppendDecision encodes it — the bytes
// it was first sent as — without the trailing newline, and stops on the
// first error. The line is valid only during the call.
func (s *Session) Replay(after uint64, fn func(seq uint64, line []byte) error) error {
	s.h.mu.Lock()
	decs := s.st.ring.collect(func(d *wire.Decision) bool { return d.Seq > after })
	s.h.mu.Unlock()
	var line []byte
	for i := range decs {
		var err error
		if line, err = wire.AppendDecision(line[:0], &decs[i]); err != nil {
			return err
		}
		if err := fn(decs[i].Seq, line[:len(line)-1]); err != nil {
			return err
		}
	}
	return nil
}

// ChannelFloor reports a channel's hub-side accepted floor without
// holding a session — the router and stats paths read it.
func (h *Hub) ChannelFloor(channel string) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if st := h.chans[channel]; st != nil {
		return st.last
	}
	return 0
}

// Forget drops a channel's live-side state — its resume ring and accepted
// floor — and cuts the connection of the session bound to it: the channel
// was detached, so a later incarnation under the same id starts at its own
// floor and is never replayed the old one's decisions.
func (h *Hub) Forget(channel string) {
	h.mu.Lock()
	st := h.chans[channel]
	delete(h.chans, channel)
	var conn io.Closer
	if st != nil {
		conn, st.conn = st.conn, nil
	}
	h.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Publish appends one verdict event to the watch ring and wakes the SSE
// subscribers it concerns. Called from the pool's verdict sink — it must
// never block on a slow dashboard, so a subscriber owed SubBuf events it has
// not copied out, or whose oldest owed event the ring is about to lose, is
// disconnected instead of waited for. The payload is copied into the ring
// slot's own buffer, so once the ring is full a publish allocates nothing.
func (h *Hub) Publish(channel string, payload []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.nextID++
	id := h.nextID
	ev := h.watch.next(h.watchCap)
	if cap(ev.payload) < len(payload) {
		ev.payload = nil // regrow to the line's size class, not to twice the old buffer
	}
	ev.id, ev.channel, ev.payload = id, channel, append(ev.payload[:0], payload...)
	for sub := range h.subs {
		switch {
		case sub.channel != "" && sub.channel != channel:
			if sub.owed == 0 {
				sub.next = id + 1 // nothing owed up to here
			}
		case sub.owed == h.subBuf:
			h.cut(sub)
			continue
		default:
			if sub.owed == 0 {
				sub.next = id
			}
			sub.owed++
			select {
			case sub.wake <- struct{}{}:
			default: // already woken
			}
		}
		if sub.owed > 0 && id-sub.next >= uint64(h.watchCap) {
			h.cut(sub) // its oldest owed event just left the ring
		}
	}
}

// cut disconnects a subscriber that fell behind. What it was owed is
// dropped rather than delivered with a gap; it reconnects with its
// Last-Event-ID. Callers hold mu.
func (h *Hub) cut(sub *Watcher) {
	sub.owed = 0
	h.release(sub)
}

// release ends a subscription: the subscriber copies out what it is still
// owed and stops. Callers hold mu.
func (h *Hub) release(sub *Watcher) {
	sub.gone = true
	close(sub.wake)
	delete(h.subs, sub)
}

// copyOut appends, as SSE frames, the retained events sub is owed — from
// sub.next on, through its filter — and marks them delivered. A subscriber
// that is gone is owed only what it was owed when it went: nothing, if it
// was cut. Callers hold mu.
func (h *Hub) copyOut(sub *Watcher, dst []byte) []byte {
	if sub.gone && sub.owed == 0 {
		return dst
	}
	n := uint64(len(h.watch.buf))
	oldest := h.nextID + 1 - n
	sub.next = max(sub.next, oldest)
	for ; sub.next <= h.nextID; sub.next++ {
		ev := h.watch.at(int(sub.next - oldest))
		if sub.channel != "" && sub.channel != ev.channel {
			continue
		}
		dst = strconv.AppendUint(append(dst, "id: "...), ev.id, 10)
		dst = append(append(dst, "\nevent: verdict\ndata: "...), ev.payload...)
		dst = append(dst, "\n\n"...)
	}
	sub.owed = 0
	return dst
}

// Watch subscribes to the events published from now on that concern
// channel ("": every channel), and returns the retained ones above after
// as SSE frames. Replay and subscription happen under one lock, so no event
// falls in the gap between them: the replay is the watcher's first
// copy-out.
func (h *Hub) Watch(channel string, after uint64) (*Watcher, []byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, nil, ErrHubClosed
	}
	sub := &Watcher{h: h, wake: make(chan struct{}, 1), channel: channel, next: after + 1}
	frames := h.copyOut(sub, nil)
	h.subs[sub] = struct{}{}
	return sub, frames, nil
}

// Wake receives when events are owed to the watcher, and is closed once it
// is gone.
func (sub *Watcher) Wake() <-chan struct{} { return sub.wake }

// Next appends the events the watcher is owed to dst as SSE frames, and
// reports whether it is gone — the hub closed, or cut it for falling
// behind — after which nothing more comes.
func (sub *Watcher) Next(dst []byte) ([]byte, bool) {
	sub.h.mu.Lock()
	defer sub.h.mu.Unlock()
	return sub.h.copyOut(sub, dst), sub.gone
}

// Stop ends the subscription.
func (sub *Watcher) Stop() {
	sub.h.mu.Lock()
	delete(sub.h.subs, sub)
	sub.h.mu.Unlock()
}

// Watchers is the number of subscriptions the hub holds.
func (h *Hub) Watchers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// ServeWatch serves the SSE dashboard stream: every published verdict as
// an `event: verdict` with its ring id, replaying retained events above
// the client's Last-Event-ID (header or ?last_id=) first. ?channel=
// filters to one channel.
func (h *Hub) ServeWatch(w wire.ResponseWriter, r *wire.Request) {
	if r.Method != wire.MethodGet {
		wire.Error(w, "watch wants GET", wire.StatusMethodNotAllowed)
		return
	}
	after := uint64(0)
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("last_id")
	}
	if lastID != "" {
		v, err := strconv.ParseUint(lastID, 10, 64)
		if err != nil {
			wire.Error(w, "bad Last-Event-ID", wire.StatusBadRequest)
			return
		}
		after = v
	}
	sub, frames, err := h.Watch(r.URL.Query().Get("channel"), after)
	if err != nil {
		wire.Error(w, "shutting down", wire.StatusUnavailable)
		return
	}
	defer sub.Stop()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	// Flush the headers (as an SSE comment) before waiting for events: the
	// client learns the stream is up immediately, and because the
	// subscription is already registered, anything it publishes-after-
	// connect is guaranteed delivery — replay and live leave no gap.
	fmt.Fprintf(w, ": live\n\n")
	w.Flush()
	ctx := r.Context()
	for gone := false; ; {
		if len(frames) > 0 {
			if _, err := w.Write(frames); err != nil {
				return
			}
			w.Flush()
		}
		if gone {
			// Hub closed or this subscriber fell too far behind; either way
			// the client should reconnect with its Last-Event-ID.
			fmt.Fprintf(w, ": stream closed, reconnect with Last-Event-ID\n\n")
			w.Flush()
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-sub.wake:
		}
		frames, gone = sub.Next(frames[:0])
	}
}

// Close tears the hub down: every bound live connection is closed (which
// unblocks its handler's read loop) and every SSE subscriber stream ends.
// Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	var conns []io.Closer
	for _, st := range h.chans {
		if st.conn != nil {
			conns = append(conns, st.conn)
			st.conn = nil
		}
	}
	for sub := range h.subs {
		h.release(sub)
	}
	h.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
