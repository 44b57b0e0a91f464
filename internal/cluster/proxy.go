package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"aovlis/internal/metrics"
	"aovlis/internal/wire"
)

// slot is one pending segment in a stream's pipelining ring: the raw line
// (newline-terminated, in a buffer the stream's spare stack lends it while
// the segment is pending), its client-visible seq, its accept time, and
// whether it is currently written-and-registered on the live upstream
// (sent) or queued at the router (sent=false, e.g. after its upstream
// died).
type slot struct {
	buf  []byte
	seq  uint64
	t0   time.Time
	sent bool
}

// upstream is one forward connection to a channel's owner: the wire.Stream
// the driver writes lines into, and the Feeder that relays its decision lines
// back so the driver never blocks on a node while the client is sending.
// Aborting the stream ends both.
type upstream struct {
	node   *Node
	epoch  uint64
	stream *wire.Stream
	acks   *wire.Feeder
}

// ended is the error that closed the connection's ack relay: what the stream
// reported (a *wire.Refused for a whole-stream 429), or the node finishing
// the response while the driver still expected decisions on it.
func (up *upstream) ended() error {
	err := up.acks.Err()
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("cluster: node %s: %w", up.node.Spec.Name, err)
}

// proxyStream is the per-client-request forwarding state machine: a driver
// (the request handler goroutine, which holds ALL routing state) between two
// instances of wire.Feeder:
//
//   - one over the client's request body, so the driver never blocks on
//     client input while an acknowledgement is waiting;
//   - one per upstream connection over its wire.Stream, so the driver never
//     blocks on a node while the client is sending — the full-duplex
//     property a windowed client depends on. A rotated-away connection's
//     feeder is stopped and dropped with it, so a stale acknowledgement
//     cannot reach the driver;
//   - the driver waits on both in one place (wait), preserving the
//     invariants: pending[tail..tail+npending) is the FIFO of
//     accepted-but-unanswered segments, the sent ones form a contiguous
//     prefix, every sent slot holds one in-flight registration on the entry
//     (queued slots hold none, so migrations and failovers never wait on a
//     segment no live node has), and decision lines reach the client
//     strictly in accept order, each carrying its slot's seq.
type proxyStream struct {
	r     *Router
	entry *entry
	id    string

	w   wire.ResponseWriter
	out *wire.LineWriter // over w: decision lines, flushed before every blocking wait
	ctx context.Context

	pending  []slot
	tail     int // index of oldest pending
	npending int
	nsent    int // sent slots (prefix of pending FIFO)
	// spare holds the line buffers of answered segments for the next
	// accepted ones, so a stream makes as many as it ever has pending, not
	// one per window slot.
	spare [][]byte

	feed *wire.Feeder // client lines

	up        *upstream
	responses int    // decision lines written to the client
	seq       uint64 // next client seq
	line      []byte // a renumbered or synthesised decision line, reused

	// recoverBy bounds TOTAL time in upstream recovery without real
	// progress. Set on the first broken-upstream error, cleared only by a
	// delivered decision — an opened connection is not progress, or a node
	// that accepts connections and then fails every stream (a fast 500
	// loop) would reset the failover budget on every retry and livelock
	// the stream forever.
	recoverBy time.Time
}

// handleObserve proxies one client observe stream through the fleet.
func (r *Router) handleObserve(w wire.ResponseWriter, req *wire.Request, id string) {
	e, err := r.tbl.ensure(id, r.place)
	if err != nil {
		wire.Error(w, err.Error(), wire.StatusUnavailable)
		return
	}
	// Lazily flushed with the first decision line; a whole-stream 429
	// relay (wire.Error) still overrides it.
	w.Header().Set("Content-Type", "application/x-ndjson")
	ps := &proxyStream{
		r: r, entry: e, id: id, w: w, out: wire.NewLineWriter(w), ctx: req.Context(),
		pending: make([]slot, r.cfg.Window),
		feed:    wire.Feed(req.Context().Done(), wire.ScanLines(req.Body), 2),
	}
	defer ps.closeUpstream()
	if err := ps.run(); err != nil {
		ps.terminate(err)
		return
	}
	if scErr := ps.feed.Err(); scErr != nil {
		ps.writeDecision(wire.Decision{Channel: id, Seq: ps.seq,
			Error: fmt.Sprintf("request stream aborted: %v", scErr)})
	}
	ps.out.Flush()
}

// run drives the stream until the client input has ended and every accepted
// segment is answered. Each turn pushes the queued segments onto the owner —
// recovery or a migration park may have left some, and the client may be
// idle waiting for them — then waits for one event. The client feed is off
// while the window is full, when only an acknowledgement frees a slot. Once
// the input has ended the upstream body is half-closed, everything pending
// being on the wire: the node's observe handler pipelines up to its batch
// depth and only guarantees the tail of that pipeline on request EOF, so a
// drain that held the pipe open could wait forever on decisions the node is
// holding for exactly that EOF. Upstream failures demote the sent segments
// back to queued and retry within the failover budget.
func (ps *proxyStream) run() error {
	in := ps.feed.C
	for in != nil || ps.npending > 0 {
		if err := ps.flushQueued(); err != nil {
			return err
		}
		feed := in
		switch {
		case in == nil:
			ps.halfCloseUpstream()
		case ps.npending == len(ps.pending):
			feed = nil
		}
		line, ended, err := ps.wait(feed)
		switch {
		case err != nil:
			if err = ps.handleUpstreamError(err); err != nil {
				return err
			}
		case ended:
			in = nil
		case line != nil:
			ps.accept(line)
		}
	}
	return nil
}

// wait is the driver's one blocking point. It returns the next line from the
// client feed in, or ended once in closes, or delivers one acknowledgement
// from the live upstream (nil line). in is nil while the window is full,
// once the input has ended, and during a drain. It tries without blocking
// first; only when nothing is immediately available does it flush both
// directions, then wait: the node cannot acknowledge lines it has not seen,
// and the client may be gating its next sends on decisions still sitting in
// our buffer. Flushing costs a syscall per call — paying it once per idle
// transition instead of once per line is most of the router's single-core
// throughput.
func (ps *proxyStream) wait(in <-chan []byte) (line []byte, ended bool, err error) {
	var acks chan []byte // nil (never ready) without a live upstream
	if ps.up != nil {
		acks = ps.up.acks.C
	}
	done := ps.ctx.Done()
	if in != nil {
		done = nil // the client feed closes itself when the client goes away
	}
	var (
		ack []byte
		ok  bool
	)
	select {
	case line, ok = <-in:
		return line, !ok, nil
	case ack, ok = <-acks:
	default:
		if ps.up != nil {
			if err := ps.up.stream.Flush(); err != nil {
				return nil, false, err
			}
		}
		ps.out.Flush()
		select {
		case line, ok = <-in:
			return line, !ok, nil
		case ack, ok = <-acks:
		case <-done:
			return nil, false, terminalError{fmt.Errorf("cluster: client went away")}
		}
	}
	return nil, false, ps.onAck(ack, ok)
}

// accept queues one observation line from the feeder in the next window
// slot; run makes room for it first and pushes it after.
func (ps *proxyStream) accept(buf []byte) {
	i := (ps.tail + ps.npending) % len(ps.pending)
	s := &ps.pending[i]
	if k := len(ps.spare) - 1; k >= 0 {
		s.buf, ps.spare = ps.spare[k], ps.spare[:k]
	}
	s.buf = append(append(s.buf[:0], buf...), '\n')
	ps.feed.Recycle(buf)
	s.seq = ps.seq
	s.t0 = time.Now()
	s.sent = false
	ps.seq++
	ps.npending++
	ps.r.m.segments.Inc()
}

// flushQueued pushes every queued (unsent) pending slot onto the current
// owner's upstream, in order, registering each as in-flight. It parks
// across live migrations (draining its own sent segments first — they
// hold the registrations the migration is waiting on) and retries across
// broken upstreams within the failover budget.
func (ps *proxyStream) flushQueued() error {
	for ps.nsent < ps.npending {
		owner, epoch, ok := ps.entry.beginSegment()
		if !ok {
			// Migration draining: our sent segments must acknowledge
			// before it can proceed, and we must not push new ones.
			if err := ps.drain(); err != nil {
				if err = ps.handleUpstreamError(err); err != nil {
					return err
				}
			}
			ps.entry.waitFlipped(epoch)
			continue
		}
		if err := ps.ensureUpstream(owner, epoch); err != nil {
			ps.entry.endSegment()
			if err := ps.handleUpstreamError(err); err != nil {
				return err
			}
			continue
		}
		i := (ps.tail + ps.nsent) % len(ps.pending)
		s := &ps.pending[i]
		if err := ps.up.stream.WriteLine(s.buf); err != nil {
			ps.entry.endSegment()
			if err := ps.handleUpstreamError(err); err != nil {
				return err
			}
			continue
		}
		s.sent = true
		ps.nsent++
		ps.r.m.perNode[owner.Spec.Name].Inc()
	}
	return nil
}

// drain acknowledges every currently-sent segment, before parking for a
// migration and before a rotation: wait with the client feed off. No
// further line will be written on this connection — ownership is about to
// flip and the flip rotates it — so it half-closes first, forcing the node
// to flush its pipelined tail. Recovery from its error is the caller's.
func (ps *proxyStream) drain() error {
	ps.halfCloseUpstream()
	for ps.nsent > 0 {
		if _, _, err := ps.wait(nil); err != nil {
			return err
		}
	}
	return nil
}

// onAck handles one receive from the live upstream's relay: a decision line
// to deliver to the client, or (closed) the error that ended the connection.
func (ps *proxyStream) onAck(ack []byte, ok bool) error {
	up := ps.up
	if !ok {
		return up.ended()
	}
	ack = append(ack, '\n')
	err := ps.deliver(ack)
	up.acks.Recycle(ack)
	return err
}

// deliver forwards one acknowledged decision line to the client and
// resolves the oldest pending slot. The node answers lines strictly in
// submission order, so FIFO matching is exact, and every line takes that
// slot's seq: a node numbers from wherever its connection began, the client
// from its stream's start. Flushing is deferred to the next blocking wait (or
// handler return) — one syscall per idle transition, not per decision — and
// neither the wseq high-water mark nor the seq costs a JSON parse: both are
// byte scans of the node's line, which allocate nothing.
func (ps *proxyStream) deliver(raw []byte) error {
	s := &ps.pending[ps.tail]
	ps.recoverBy = time.Time{} // real progress: the failover budget rearms
	ps.r.m.forwardLatency.Observe(time.Since(s.t0).Seconds())
	var ok bool
	if ps.line, ok = appendReseq(ps.line[:0], raw, s.seq); !ok {
		return fmt.Errorf("cluster: bad acknowledgement line from %s: no seq field", ps.up.node.Spec.Name)
	}
	ps.entry.noteWseq(scanWseq(raw))
	if err := ps.out.WriteLine(ps.line); err != nil {
		return ps.clientGone(err)
	}
	ps.responses++
	ps.r.m.responses.Inc()
	ps.pop()
	return nil
}

// wseqKey and seqKey are the decision wire fields deliver scans for. The
// literal byte sequences cannot be forged by channel names or errors: the
// only free-form strings in a decision line are JSON-encoded, which escapes
// their quotes.
var (
	wseqKey = []byte(`"wseq":`)
	seqKey  = []byte(`"seq":`)
)

// scanWseq extracts the wseq field from a raw decision line without a
// full JSON parse (0 when absent — a line the node accepted nothing for).
func scanWseq(raw []byte) uint64 {
	i := bytes.Index(raw, wseqKey)
	if i < 0 {
		return 0
	}
	var w uint64
	for _, c := range raw[i+len(wseqKey):] {
		if c < '0' || c > '9' {
			break
		}
		w = w*10 + uint64(c-'0')
	}
	return w
}

// appendReseq appends the decision line raw to dst with the digits of its
// seq field replaced by seq — the bytes wire.AppendDecision writes for the
// same decision carrying that seq. It reports false when raw has no seq
// field.
func appendReseq(dst, raw []byte, seq uint64) ([]byte, bool) {
	i := bytes.Index(raw, seqKey)
	if i < 0 {
		return dst, false
	}
	i += len(seqKey)
	j := i
	for j < len(raw) && '0' <= raw[j] && raw[j] <= '9' {
		j++
	}
	if j == i {
		return dst, false
	}
	dst = strconv.AppendUint(append(dst, raw[:i]...), seq, 10)
	return append(dst, raw[j:]...), true
}

// clientGone wraps a response-write failure: the client disconnected, so
// recovery is pointless. The segment was acknowledged by the node (it is
// scored state), so the slot still pops.
func (ps *proxyStream) clientGone(err error) error {
	ps.pop()
	return terminalError{fmt.Errorf("cluster: client went away: %w", err)}
}

// pop releases the oldest pending slot, its line buffer and its in-flight
// registration.
func (ps *proxyStream) pop() {
	s := &ps.pending[ps.tail]
	ps.spare, s.buf = append(ps.spare, s.buf), nil
	if s.sent {
		s.sent = false
		ps.nsent--
		ps.entry.endSegment()
	}
	ps.tail = (ps.tail + 1) % len(ps.pending)
	ps.npending--
}

// terminalError marks failures no retry can fix (client gone, failover
// budget exhausted); handleUpstreamError passes them through.
type terminalError struct{ err error }

func (t terminalError) Error() string { return t.err.Error() }
func (t terminalError) Unwrap() error { return t.err }

// handleUpstreamError recovers from a broken or rejecting upstream. The
// sent segments demote back to queued (releasing their in-flight
// registrations — no live node holds them now, so migrations and
// failovers must not wait on them) and will be resubmitted to the current
// owner by the next flushQueued. A whole-stream 429 relays the node's
// Retry-After to a client that has received nothing yet, or converts the
// pending segments to per-line rejections mid-stream. Returns nil when
// the caller should retry, or a terminal error to abort the stream.
func (ps *proxyStream) handleUpstreamError(err error) error {
	if te, ok := err.(terminalError); ok {
		return te
	}
	var rej *wire.Refused
	if errors.As(err, &rej) {
		ps.closeUpstream()
		ps.demoteSent()
		ps.r.m.streams429.Inc()
		if ps.responses == 0 {
			// Nothing written yet: the relay can still be a real 429.
			ps.w.Header().Set("Retry-After", rej.RetryAfter)
			wire.Error(ps.w, "cluster: node overloaded (admission reject), retry later", wire.StatusTooManyRequests)
			return terminalError{rej}
		}
		// Mid-stream: the status line is gone; answer every pending
		// segment with the node's per-line rejection shape instead.
		return ps.answerPending(wire.Decision{Rejected: true}, ps.r.m.rejected)
	}

	// Broken upstream: demote and retry against the (possibly new) owner
	// within the failover budget.
	ps.closeUpstream()
	demoted := ps.demoteSent()
	if demoted > 0 {
		ps.r.m.resubmitted.Add(uint64(demoted))
	}
	ps.out.Flush() // decisions already delivered should not wait out a failover
	// The first failure after progress reopens at once; a failure before
	// any decision came back on the reopened connection (a node that
	// accepts streams and fails them) waits a retry beat first, so an
	// unproductive open/fail cycle runs at the retry pace, not the dial's.
	paced := !ps.recoverBy.IsZero()
	if !paced {
		ps.recoverBy = time.Now().Add(ps.r.cfg.FailoverWait)
	}
	deadline := ps.recoverBy
	for ; ; paced = true {
		if paced {
			select {
			case <-ps.ctx.Done():
				return terminalError{fmt.Errorf("cluster: client went away during failover")}
			case <-time.After(ps.r.cfg.RetryEvery):
			}
		}
		// The budget check comes FIRST: a reopened connection alone must
		// not count as recovery (openUpstream succeeds against a node that
		// then fails every stream), so an unproductive open/fail cycle
		// still walks into this branch once the budget is spent.
		if time.Now().After(deadline) {
			// Budget exhausted: answer the queued segments with error
			// lines so the client knows exactly which were never scored.
			if werr := ps.answerPending(wire.Decision{
				Error: fmt.Sprintf("cluster: no owner reachable within failover budget: %v", err)}, ps.r.m.errored); werr != nil {
				return werr
			}
			return terminalError{fmt.Errorf("cluster: failover budget exhausted: %w", err)}
		}
		owner, epoch, migrating := ps.entry.state()
		if !migrating && owner.Alive() && ps.openUpstream(owner, epoch) == nil {
			return nil // flushQueued will resubmit
		}
	}
}

// demoteSent converts every sent slot back to queued and releases its
// registration. Returns how many were demoted.
func (ps *proxyStream) demoteSent() int {
	n := 0
	for i := 0; i < ps.npending; i++ {
		s := &ps.pending[(ps.tail+i)%len(ps.pending)]
		if s.sent {
			s.sent = false
			ps.entry.endSegment()
			n++
		}
	}
	ps.nsent = 0
	return n
}

// ensureUpstream makes the live upstream match (owner, epoch), rotating
// the connection when ownership moved or no connection exists.
func (ps *proxyStream) ensureUpstream(owner *Node, epoch uint64) error {
	if ps.up != nil && ps.up.node == owner && ps.up.epoch == epoch {
		return nil
	}
	if ps.up != nil {
		// Ownership moved under us: settle the old connection first so
		// its decisions arrive in order, then rotate.
		if err := ps.drain(); err != nil {
			return err
		}
		ps.closeUpstream()
		ps.r.m.rotations.Inc()
	}
	return ps.openUpstream(owner, epoch)
}

// openUpstream starts a forward request to owner and the relay of its
// acknowledgements. A dead process refuses the dial, which is the open's own
// error, and leaves no upstream. It does not wait for response headers — the
// node only sends them with the first decision.
func (ps *proxyStream) openUpstream(owner *Node, epoch uint64) error {
	stream, err := wire.OpenStream(ps.ctx, ps.r.dial, owner.observeURL(ps.id))
	if err != nil {
		return fmt.Errorf("cluster: node %s: %w", owner.Spec.Name, err)
	}
	// The relay's depth is an invariant, not a tuning: it must absorb a full
	// window of acknowledgements without the driver's help. The driver can be
	// parked in an upstream socket write while the node is parked writing
	// decisions for lines it already has; a relay that stopped reading then
	// (two buffers are enough to do it once lines are large) would leave
	// both parked for good. +2: one buffer with the driver, one being filled.
	// The relay ends through Next when its stream is aborted; the client's
	// context only stops one parked on buffers a dropped relay never gets back.
	ps.up = &upstream{node: owner, epoch: epoch, stream: stream,
		acks: wire.Feed(ps.ctx.Done(), stream.Next, len(ps.pending)+2)}
	return nil
}

// halfCloseUpstream ends the upstream request body cleanly, so the node
// answers everything it has pipelined; the relay keeps delivering until the
// node finishes the response. Safe to call repeatedly.
func (ps *proxyStream) halfCloseUpstream() {
	if ps.up != nil {
		ps.up.stream.CloseSend() // a flush failure surfaces on the ack relay
	}
}

// closeUpstream tears down the live upstream, if any, and with it the relay
// of its acknowledgements.
func (ps *proxyStream) closeUpstream() {
	if ps.up != nil {
		ps.up.stream.Abort()
		ps.up = nil
	}
}

// terminate resolves an aborted stream: any still-pending segments get
// error lines (unless the client itself is gone) so the zero-loss
// invariant — every accepted segment is answered — holds on every path.
func (ps *proxyStream) terminate(err error) {
	ps.answerPending(wire.Decision{Error: fmt.Sprintf("cluster: stream aborted: %v", err)}, ps.r.m.errored)
	for ps.npending > 0 { // client gone: release registrations only
		ps.pop()
	}
	ps.r.cfg.Logf("cluster: observe stream %q aborted: %v", ps.id, err)
}

// answerPending resolves every pending segment, oldest first, with the
// synthesised line d (a per-line rejection or an error; channel and seq are
// filled in), counting each. A failed write means the client is gone.
func (ps *proxyStream) answerPending(d wire.Decision, count *metrics.Counter) error {
	d.Channel = ps.id
	for ps.npending > 0 {
		d.Seq = ps.pending[ps.tail].seq
		if err := ps.writeDecision(d); err != nil {
			return ps.clientGone(err)
		}
		count.Inc()
		ps.pop()
	}
	return nil
}

// writeDecision emits one synthesised decision line.
func (ps *proxyStream) writeDecision(d wire.Decision) error {
	var err error
	ps.line, err = wire.AppendDecision(ps.line[:0], &d)
	if err == nil {
		err = ps.out.WriteLine(ps.line)
	}
	if err != nil {
		return err
	}
	ps.responses++
	ps.r.m.responses.Inc()
	return nil
}
