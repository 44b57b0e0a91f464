package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"aovlis/internal/wire"
)

// slot is one pending segment in a stream's pipelining ring: the raw line
// (newline-terminated, buffer reused across segments), its client-visible
// seq, its accept time, and whether it is currently written-and-registered
// on the live upstream (sent) or queued at the router (sent=false, e.g.
// after its upstream died).
type slot struct {
	buf  []byte
	seq  uint64
	t0   time.Time
	sent bool
}

// upstream is one pooled forward connection: the request-body pipe the
// driver writes lines into, plus the cancel that aborts the forward
// request (which is what stops the connection's ack reader — the reader
// owns the response end to end). offset is the client seq of the
// connection's first line — when non-zero, acknowledged decisions carry a
// connection-local seq and must be rewritten before reaching the client.
// gen tags the connection so the driver can discard stale ack messages
// after a rotation.
type upstream struct {
	node   *Node
	epoch  uint64
	gen    uint64
	pw     *io.PipeWriter
	bw     *bufio.Writer // over pw; flushed before every blocking wait
	cancel context.CancelFunc
	offset uint64
}

// ackMsg is one message from an upstream ack reader to the driver: either
// a raw decision line (in a recycled buffer the driver must return to
// ackFree) or the error that ended that connection. gen identifies which
// connection it came from.
type ackMsg struct {
	gen  uint64
	line []byte
	err  error
}

type respResult struct {
	resp *http.Response
	err  error
}

// errUpstreamRejected marks an upstream that answered the whole stream
// with 429 + Retry-After (node admission reject).
type errUpstreamRejected struct{ retryAfter string }

func (e errUpstreamRejected) Error() string {
	return "cluster: node rejected stream (429, Retry-After " + e.retryAfter + ")"
}

// proxyStream is the per-client-request forwarding state machine. Three
// goroutines cooperate, but ALL routing state lives on the driver (the
// request handler goroutine):
//
//   - the feeder (wire.Feed) scans client lines into recycled buffers, so
//     the driver never blocks on client input while an acknowledgement is
//     waiting;
//   - one ack reader per upstream connection relays decision lines into
//     ackCh (buffers recycled via ackFree), tagged with the connection
//     gen, so the driver never blocks on a node while the client is
//     sending — the full-duplex property a windowed client depends on;
//   - the driver selects over both, preserving the invariants:
//     pending[tail..tail+npending) is the FIFO of accepted-but-unanswered
//     segments, the sent ones form a contiguous prefix, every sent slot
//     holds one in-flight registration on the entry (queued slots hold
//     none, so migrations and failovers never wait on a segment no live
//     node has), and decision lines reach the client strictly in accept
//     order.
type proxyStream struct {
	r     *Router
	entry *entry
	id    string

	w   http.ResponseWriter
	out *wire.LineWriter // over w: decision lines, flushed before every blocking wait
	ctx context.Context

	pending  []slot
	tail     int // index of oldest pending
	npending int
	nsent    int // sent slots (prefix of pending FIFO)

	feed    *wire.Feeder // client lines
	ackCh   chan ackMsg
	ackFree chan []byte

	up        *upstream
	gen       uint64 // last connection gen issued
	responses int    // decision lines written to the client
	seq       uint64 // next client seq

	// recoverBy bounds TOTAL time in upstream recovery without real
	// progress. Set on the first broken-upstream error, cleared only by a
	// delivered decision — an opened connection is not progress, or a node
	// that accepts connections and then fails every stream (a fast 500
	// loop) would reset the failover budget on every retry and livelock
	// the stream forever.
	recoverBy time.Time
}

// relayRetryAfter extracts the node's Retry-After header value, defaulting
// to "1" (the node always sets it, but the relay must not vanish if a
// proxy in between strips it).
func relayRetryAfter(resp *http.Response) string {
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		return ra
	}
	return "1"
}

// handleObserve proxies one client observe stream through the fleet.
func (r *Router) handleObserve(w http.ResponseWriter, req *http.Request, id string) {
	e, err := r.tbl.ensure(id, r.place)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil && req.ProtoMajor == 1 {
		http.Error(w, fmt.Sprintf("streaming unsupported: %v", err), http.StatusInternalServerError)
		return
	}
	// Lazily flushed with the first decision line; a whole-stream 429
	// relay (http.Error) still overrides it.
	w.Header().Set("Content-Type", "application/x-ndjson")
	window := r.cfg.Window
	ps := &proxyStream{
		r: r, entry: e, id: id, w: w, out: wire.NewLineWriter(w), ctx: req.Context(),
		pending: make([]slot, window),
		feed:    wire.Feed(req.Context().Done(), wire.ScanLines(req.Body)),
		ackCh:   make(chan ackMsg, window),
		ackFree: make(chan []byte, window+2),
	}
	for i := 0; i < cap(ps.ackFree); i++ {
		ps.ackFree <- make([]byte, 0, 256)
	}
	defer ps.closeUpstream()

	lineCh := ps.feed.C
	for {
		// Try without blocking first; only when nothing is immediately
		// available flush the buffered client decisions and upstream lines,
		// then wait. Flushing costs a syscall per call — paying it once per
		// idle transition instead of once per line is most of the router's
		// single-core throughput.
		var (
			buf     []byte
			lineOK  bool
			m       ackMsg
			isLine  bool
			gotWork bool
		)
		select {
		case buf, lineOK = <-lineCh:
			isLine, gotWork = true, true
		case m = <-ps.ackCh:
			gotWork = true
		default:
		}
		if !gotWork {
			if err := ps.flushUpstream(); err != nil {
				if err = ps.handleUpstreamError(err); err != nil {
					ps.terminate(err)
					return
				}
				continue
			}
			ps.out.Flush()
			select {
			case buf, lineOK = <-lineCh:
				isLine = true
			case m = <-ps.ackCh:
			}
		}
		if isLine {
			if !lineOK {
				if err := ps.drainAll(); err != nil {
					ps.terminate(err)
					return
				}
				if scErr := ps.feed.Err(); scErr != nil {
					ps.writeDecision(wire.Decision{Channel: id, Seq: ps.seq,
						Error: fmt.Sprintf("request stream aborted: %v", scErr)})
				}
				ps.out.Flush()
				return
			}
			if err := ps.accept(buf); err != nil {
				ps.terminate(err)
				return
			}
			continue
		}
		err := ps.processAck(m)
		if err != nil {
			err = ps.handleUpstreamError(err)
		}
		if err == nil && ps.nsent < ps.npending {
			// Recovery (or a migration park) left segments queued;
			// resubmit now — the client may be idle waiting for them.
			err = ps.flushQueued()
		}
		if err != nil {
			ps.terminate(err)
			return
		}
	}
}

// accept takes one observation line from the feeder: it frees a window
// slot if needed (resolving one acknowledgement), queues the line, and
// pushes queued lines onto the live upstream.
func (ps *proxyStream) accept(buf []byte) error {
	if ps.npending == len(ps.pending) {
		if err := ps.awaitAck(); err != nil {
			return err
		}
	}
	i := (ps.tail + ps.npending) % len(ps.pending)
	s := &ps.pending[i]
	s.buf = append(s.buf[:0], buf...)
	s.buf = append(s.buf, '\n')
	ps.feed.Recycle(buf)
	s.seq = ps.seq
	s.t0 = time.Now()
	s.sent = false
	ps.seq++
	ps.npending++
	ps.r.m.segments.Inc()
	return ps.flushQueued()
}

// drainAll resolves every pending segment (end of client stream). Once
// everything pending is on the wire it half-closes the upstream body:
// the node's observe handler pipelines up to its batch depth and only
// guarantees the tail of that pipeline on request EOF, so a drain that
// held the pipe open could wait forever on decisions the node is
// holding for exactly that EOF.
func (ps *proxyStream) drainAll() error {
	for ps.npending > 0 {
		if ps.nsent < ps.npending {
			if err := ps.flushQueued(); err != nil {
				return err
			}
		}
		if ps.nsent == ps.npending {
			ps.halfCloseUpstream()
		}
		if err := ps.readAck(); err != nil {
			if err := ps.handleUpstreamError(err); err != nil {
				return err
			}
		}
	}
	return nil
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
			if err := ps.drainSent(); err != nil {
				return err
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
		if _, err := ps.up.bw.Write(s.buf); err != nil {
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

// awaitAck resolves the oldest pending segment: flushes it upstream if
// still queued, reads its acknowledgement, and forwards the decision to
// the client. Upstream failures demote the sent segments back to queued
// and retry through flushQueued.
func (ps *proxyStream) awaitAck() error {
	for {
		if ps.nsent == 0 {
			if err := ps.flushQueued(); err != nil {
				return err
			}
		}
		if err := ps.readAck(); err != nil {
			if err := ps.handleUpstreamError(err); err != nil {
				return err
			}
			continue
		}
		return nil
	}
}

// drainSent acknowledges every currently-sent segment (used before
// parking for a migration). No further line will be written on this
// connection — ownership is about to flip and the flip rotates it — so
// it half-closes first, forcing the node to flush its pipelined tail.
func (ps *proxyStream) drainSent() error {
	ps.halfCloseUpstream()
	for ps.nsent > 0 {
		if err := ps.readAck(); err != nil {
			return ps.handleUpstreamError(err)
		}
	}
	return nil
}

// readAck blocks for one acknowledgement from the live upstream and
// resolves at most one pending slot with it (stale messages from rotated
// connections recycle silently without resolving anything — callers loop
// on nsent/npending, not on call counts).
func (ps *proxyStream) readAck() error {
	if ps.up == nil {
		return fmt.Errorf("cluster: no upstream")
	}
	select {
	case m := <-ps.ackCh:
		return ps.processAck(m)
	default:
	}
	// About to block: everything buffered must be on the wire first — the
	// node cannot acknowledge lines it has not seen, and the client may be
	// gating its next sends on decisions still sitting in our buffer.
	if err := ps.flushUpstream(); err != nil {
		return err
	}
	ps.out.Flush()
	select {
	case m := <-ps.ackCh:
		return ps.processAck(m)
	case <-ps.ctx.Done():
		return terminalError{fmt.Errorf("cluster: client went away")}
	}
}

// processAck handles one ack-reader message: drop it if it belongs to a
// rotated-away connection, surface its error, or deliver its decision
// line to the client.
func (ps *proxyStream) processAck(m ackMsg) error {
	if ps.up == nil || m.gen != ps.up.gen {
		ps.recycleAck(m)
		return nil
	}
	if m.err != nil {
		return m.err
	}
	err := ps.deliver(m.line)
	ps.ackFree <- m.line[:0]
	return err
}

func (ps *proxyStream) recycleAck(m ackMsg) {
	if m.line != nil {
		ps.ackFree <- m.line[:0]
	}
}

// deliver forwards one acknowledged decision line to the client and
// resolves the oldest pending slot. The node answers lines strictly in
// submission order, so FIFO matching is exact.
func (ps *proxyStream) deliver(raw []byte) error {
	up := ps.up
	s := &ps.pending[ps.tail]
	ps.recoverBy = time.Time{} // real progress: the failover budget rearms
	ps.r.m.forwardLatency.Observe(time.Since(s.t0).Seconds())
	if up.offset == 0 {
		// Fast path: the connection's seqs coincide with the client's, so
		// the node line passes through verbatim. Flushing is deferred to
		// the next blocking wait (or handler return) — one syscall per idle
		// transition, not per decision. The wseq high-water mark is scraped
		// with a byte scan instead of a JSON parse for the same reason.
		ps.entry.noteWseq(scanWseq(raw))
		if err := ps.out.WriteLine(raw); err != nil {
			return ps.clientGone(err)
		}
		ps.responses++
		ps.r.m.responses.Inc()
	} else {
		// Rotated connection: node seqs restart at 0, rewrite to the
		// client's numbering.
		var d wire.Decision
		if err := wire.DecodeDecision(raw, &d); err != nil {
			return fmt.Errorf("cluster: bad acknowledgement line from %s: %w", up.node.Spec.Name, err)
		}
		d.Seq = s.seq
		ps.entry.noteWseq(d.WSeq)
		if err := ps.writeDecision(d); err != nil {
			return ps.clientGone(err)
		}
	}
	ps.pop()
	return nil
}

// wseqKey is the decision wire field scanWseq scrapes. The literal byte
// sequence cannot be forged by channel names: the only free-form string
// in a decision line is JSON-encoded, which escapes its quotes.
var wseqKey = []byte(`"wseq":`)

// scanWseq extracts the wseq field from a raw decision line without a
// full JSON parse (0 when absent — the node runs without -wal-dir).
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

// clientGone wraps a response-write failure: the client disconnected, so
// recovery is pointless. The segment was acknowledged by the node (it is
// scored state), so the slot still pops.
func (ps *proxyStream) clientGone(err error) error {
	ps.pop()
	return terminalError{fmt.Errorf("cluster: client went away: %w", err)}
}

// pop releases the oldest pending slot and its in-flight registration.
func (ps *proxyStream) pop() {
	s := &ps.pending[ps.tail]
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
	if rej, ok := err.(errUpstreamRejected); ok {
		ps.closeUpstream()
		ps.demoteSent()
		ps.r.m.streams429.Inc()
		if ps.responses == 0 {
			// Nothing written yet: the relay can still be a real 429.
			ps.w.Header().Set("Retry-After", rej.retryAfter)
			http.Error(ps.w, "cluster: node overloaded (admission reject), retry later", http.StatusTooManyRequests)
			return terminalError{rej}
		}
		// Mid-stream: the status line is gone; answer every pending
		// segment with the node's per-line rejection shape instead.
		for ps.npending > 0 {
			s := &ps.pending[ps.tail]
			if werr := ps.writeDecision(wire.Decision{Channel: ps.id, Seq: s.seq, Rejected: true}); werr != nil {
				return ps.clientGone(werr)
			}
			ps.r.m.rejected.Inc()
			ps.pop()
		}
		return nil
	}

	// Broken upstream: demote and retry against the (possibly new) owner
	// within the failover budget.
	ps.closeUpstream()
	demoted := ps.demoteSent()
	if demoted > 0 {
		ps.r.m.resubmitted.Add(uint64(demoted))
	}
	ps.out.Flush() // decisions already delivered should not wait out a failover
	if ps.recoverBy.IsZero() {
		ps.recoverBy = time.Now().Add(ps.r.cfg.FailoverWait)
	}
	deadline := ps.recoverBy
	for {
		// The budget check comes FIRST: a reopened connection alone must
		// not count as recovery (probeOpen succeeds against a node that
		// then fails every stream), so an unproductive open/fail cycle
		// still walks into this branch once the budget is spent.
		if time.Now().After(deadline) {
			// Budget exhausted: answer the queued segments with error
			// lines so the client knows exactly which were never scored.
			for ps.npending > 0 {
				s := &ps.pending[ps.tail]
				if werr := ps.writeDecision(wire.Decision{Channel: ps.id, Seq: s.seq,
					Error: fmt.Sprintf("cluster: no owner reachable within failover budget: %v", err)}); werr != nil {
					return ps.clientGone(werr)
				}
				ps.r.m.errored.Inc()
				ps.pop()
			}
			return terminalError{fmt.Errorf("cluster: failover budget exhausted: %w", err)}
		}
		owner, epoch, migrating := ps.entry.state()
		if !migrating && owner.Alive() {
			if probeErr := ps.probeOpen(owner, epoch); probeErr == nil {
				return nil // flushQueued will resubmit
			}
		}
		select {
		case <-ps.ctx.Done():
			return terminalError{fmt.Errorf("cluster: client went away during failover")}
		case <-time.After(ps.r.cfg.RetryEvery):
		}
	}
}

// probeOpen opens a fresh upstream to the owner and verifies the node is
// actually accepting (a dead process refuses fast; a live one leaves the
// pipe writable). It does not wait for response headers — the node only
// sends them with the first decision.
func (ps *proxyStream) probeOpen(owner *Node, epoch uint64) error {
	ps.openUpstream(owner, epoch)
	if ps.npending > 0 {
		// Everything pending is queued (demoted) at this point; the new
		// connection starts with the oldest, so its node-side seq 0 maps
		// to that client seq.
		ps.up.offset = ps.pending[ps.tail].seq
	} else {
		// Idle failover: every accepted segment was already acknowledged,
		// so the connection's first line will be the NEXT accept. Its
		// client seq is ps.seq — leaving offset 0 here would pass the new
		// node's restarted seq numbering through to the client verbatim.
		ps.up.offset = ps.seq
	}
	// A closed port surfaces on the ack reader almost immediately; give
	// it one scheduling beat so the retry loop backs off instead of
	// resubmitting into a void.
	select {
	case m := <-ps.ackCh:
		if ps.up != nil && m.gen == ps.up.gen && m.err != nil {
			ps.closeUpstream()
			return m.err
		}
		ps.recycleAck(m)
	case <-time.After(2 * time.Millisecond):
	}
	return nil
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
// the connection when ownership moved or no connection exists. offset
// records the first client seq the new connection will carry.
func (ps *proxyStream) ensureUpstream(owner *Node, epoch uint64) error {
	if ps.up != nil && ps.up.node == owner && ps.up.epoch == epoch {
		return nil
	}
	if ps.up != nil {
		// Ownership moved under us: settle the old connection first so
		// its decisions arrive in order, then rotate.
		if err := ps.drainSentRaw(); err != nil {
			return err
		}
		ps.closeUpstream()
		ps.r.m.rotations.Inc()
	}
	first := ps.pending[(ps.tail+ps.nsent)%len(ps.pending)].seq
	ps.openUpstream(owner, epoch)
	ps.up.offset = first
	return nil
}

// drainSentRaw acknowledges sent segments without the error-recovery
// wrapper (used inside rotation, where the caller owns recovery). The
// connection is about to be discarded, so it half-closes first — same
// pipelined-tail reasoning as drainSent.
func (ps *proxyStream) drainSentRaw() error {
	ps.halfCloseUpstream()
	for ps.nsent > 0 {
		if err := ps.readAck(); err != nil {
			return err
		}
	}
	return nil
}

// openUpstream starts a forward request to owner and its ack reader. The
// reader owns the response end to end; the driver talks to it only
// through ackCh and stops it by cancelling the request context.
func (ps *proxyStream) openUpstream(owner *Node, epoch uint64) {
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(ps.ctx)
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, owner.observeURL(ps.id), pr)
	req.Header.Set("Content-Type", "application/x-ndjson")
	ps.gen++
	up := &upstream{node: owner, epoch: epoch, gen: ps.gen, pw: pw,
		bw: bufio.NewWriterSize(pw, 32<<10), cancel: cancel}
	respCh := make(chan respResult, 1)
	go func() {
		resp, err := ps.r.client.Do(req)
		respCh <- respResult{resp: resp, err: err}
	}()
	go ps.runAckReader(up, respCh)
	ps.up = up
}

// runAckReader relays one connection's decision lines into ackCh until
// the connection ends; the terminating error (including a whole-stream
// 429) is its last message. Every send selects on the client context so
// a finished handler can never strand it.
func (ps *proxyStream) runAckReader(up *upstream, respCh chan respResult) {
	send := func(m ackMsg) bool {
		select {
		case ps.ackCh <- m:
			return true
		case <-ps.ctx.Done():
			return false
		}
	}
	var res respResult
	select {
	case res = <-respCh:
	case <-ps.ctx.Done():
		// The transport will finish Do on its own (the request context is
		// a child of ps.ctx); reap the response when it does.
		go func() {
			if r := <-respCh; r.resp != nil {
				drainClose(r.resp.Body)
			}
		}()
		return
	}
	if res.err != nil {
		send(ackMsg{gen: up.gen, err: res.err})
		return
	}
	resp := res.resp
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		send(ackMsg{gen: up.gen, err: errUpstreamRejected{retryAfter: relayRetryAfter(resp)}})
		return
	default:
		msg := readErrorBody(resp.Body)
		send(ackMsg{gen: up.gen, err: fmt.Errorf("cluster: node %s: observe status %d: %s",
			up.node.Spec.Name, resp.StatusCode, msg)})
		return
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		raw, err := br.ReadSlice('\n')
		if err != nil {
			send(ackMsg{gen: up.gen, err: fmt.Errorf("cluster: reading acknowledgement from %s: %w", up.node.Spec.Name, err)})
			return
		}
		var buf []byte
		select {
		case buf = <-ps.ackFree:
		case <-ps.ctx.Done():
			return
		}
		if !send(ackMsg{gen: up.gen, line: append(buf, raw...)}) {
			return
		}
	}
}

// halfCloseUpstream cleanly ends the upstream request body (EOF, not an
// error), making the node's observe handler drain and answer everything
// it has pipelined. The connection stays readable — its ack reader keeps
// relaying decision lines until the node finishes the response. Safe to
// call repeatedly; a closed pipe writer stays closed.
func (ps *proxyStream) halfCloseUpstream() {
	if ps.up != nil {
		ps.up.bw.Flush() // a flush failure surfaces on the ack reader
		ps.up.pw.Close()
	}
}

// closeUpstream tears down the live upstream, if any: the pipe unblocks
// any in-flight body write, the cancel aborts the forward request, which
// ends its ack reader.
func (ps *proxyStream) closeUpstream() {
	up := ps.up
	if up == nil {
		return
	}
	ps.up = nil
	up.pw.CloseWithError(io.ErrClosedPipe)
	up.cancel()
}

// terminate resolves an aborted stream: any still-pending segments get
// error lines (unless the client itself is gone) so the zero-loss
// invariant — every accepted segment is answered — holds on every path.
func (ps *proxyStream) terminate(err error) {
	for ps.npending > 0 {
		s := &ps.pending[ps.tail]
		if werr := ps.writeDecision(wire.Decision{Channel: ps.id, Seq: s.seq,
			Error: fmt.Sprintf("cluster: stream aborted: %v", err)}); werr != nil {
			ps.pop()
			break
		}
		ps.r.m.errored.Inc()
		ps.pop()
	}
	for ps.npending > 0 { // client gone: release registrations only
		ps.pop()
	}
	ps.r.cfg.Logf("cluster: observe stream %q aborted: %v", ps.id, err)
}

// writeDecision emits one synthesised or rewritten decision line.
func (ps *proxyStream) writeDecision(d wire.Decision) error {
	line, err := wire.AppendDecision(nil, &d)
	if err == nil {
		err = ps.out.WriteLine(line)
	}
	if err != nil {
		return err
	}
	ps.responses++
	ps.r.m.responses.Inc()
	return nil
}

// flushUpstream pushes buffered observation lines to the node. Called
// before every blocking wait on acknowledgements — unflushed lines can
// never be acknowledged.
func (ps *proxyStream) flushUpstream() error {
	if ps.up != nil && ps.up.bw != nil {
		return ps.up.bw.Flush()
	}
	return nil
}
