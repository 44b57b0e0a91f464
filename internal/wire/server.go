package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Server serves HTTP/1.1 on the connections a listener accepts: one
// goroutine per connection reads each request head with ReadRequestHead,
// runs the handler, and writes the response by hand from per-connection
// buffers — the status line and headers, then a Content-Length body or a
// chunked one. It is the serving half of Stream and Do, and the loop both
// daemons run.
//
// Every response is full duplex: the loop never discards an unread request
// body before the response starts, so a handler may interleave body reads
// with flushed writes.
// The request's context is cancelled when the handler returns, when a
// write to the client fails, and — through one background read once the
// request body is consumed, as net/http does — when the client goes away.
//
// It refuses what no caller here needs: TLS (the fleet runs behind its own
// network boundary), HTTP/2 (a request line that is not HTTP/1.x gets 505;
// streams are one connection each, so multiplexing buys nothing), response
// trailers and 1xx statuses other than the 100 Continue it sends itself.
// A response goes with the Content-Type its handler set, or none: the body
// is not sniffed.
type Server struct {
	Handler Handler

	// maxHead caps the bytes a request head may read off the connection
	// (0: MaxHeadBytes); tests lower it.
	maxHead int64

	mu      sync.Mutex
	l       Listener // the one Serve accepts on
	conns   map[*conn]struct{}
	closing atomic.Bool
}

const (
	// MaxHeadBytes caps a request head: a longer one is answered 431 and
	// its connection closed. It is net/http's default.
	MaxHeadBytes = 1 << 20
	// maxDrain is the unread request body the loop reads past after the
	// handler returns, to keep the connection; past it the connection
	// closes instead. It is net/http's figure.
	maxDrain = 256 << 10
	// lingerFor bounds a lingering close: how long a closing connection
	// keeps reading and dropping what the client still sends, so the
	// client reads its response before the connection resets.
	lingerFor = 500 * time.Millisecond
	// serverBuf is each connection's read buffer and its response buffer;
	// a fuller response buffer goes out as one chunk.
	serverBuf = 4 << 10
	// shutdownPoll is how often Shutdown looks for idle connections.
	shutdownPoll = 10 * time.Millisecond
)

// Connection states: idle between requests (Shutdown may close it), active
// while a request is read and served, closed once Shutdown took it.
const (
	stateIdle int32 = iota
	stateActive
	stateClosed
)

// aLongTimeAgo is a read deadline that fails a parked read at once.
var aLongTimeAgo = time.Unix(1, 0)

// Errors of Serve and of a ResponseWriter.
var (
	// ErrServerClosed is what Serve returns after Shutdown.
	ErrServerClosed = errors.New("wire: Server closed")
	// errHijacked is a write, flush or hijack after Hijack.
	errHijacked = errors.New("wire: connection has been hijacked")
	// errBodyNotAllowed is a body write to a HEAD request or a status
	// that has no body.
	errBodyNotAllowed = errors.New("wire: request method or response status code does not allow body")
	// errContentLength is a body write past the declared Content-Length.
	errContentLength = errors.New("wire: wrote more than the declared Content-Length")
	// errBodyClosed is a body read after the handler closed the body or
	// returned.
	errBodyClosed = errors.New("wire: invalid Read on closed Body")
)

// Serve accepts connections on l and serves each on its own goroutine until
// Shutdown is called, then returns ErrServerClosed; it is called once.
// A failed Accept that is not the listener closing is retried after a pause
// (too many open files must not stop the server).
func (s *Server) Serve(l Listener) error {
	s.mu.Lock()
	s.l, s.conns = l, make(map[*conn]struct{})
	s.mu.Unlock()
	if s.closing.Load() {
		l.Close()
		return ErrServerClosed
	}
	var pause time.Duration
	for {
		rwc, err := l.Accept()
		if err != nil {
			if s.closing.Load() {
				return ErrServerClosed
			}
			if errors.Is(err, os.ErrClosed) {
				return err
			}
			pause = min(max(2*pause, 5*time.Millisecond), time.Second)
			log.Printf("wire: accept: %v; retrying in %v", err, pause)
			time.Sleep(pause)
			continue
		}
		pause = 0
		c := newConn(s, rwc)
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			rwc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown stops the server gracefully: it closes the listener, closes
// every connection waiting for a request, and waits for the active ones to
// finish their requests and close, or for ctx to end (its error is
// returned then). A hijacked connection is its new owner's: Shutdown
// neither sees nor waits for it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing.Store(true)
	if s.l != nil {
		s.l.Close()
	}
	s.mu.Unlock()
	t := time.NewTicker(shutdownPoll)
	defer t.Stop()
	for !s.closeIdle() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	return nil
}

// closeIdle closes every idle connection and reports whether none is left.
func (s *Server) closeIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if c.state.CompareAndSwap(stateIdle, stateClosed) {
			c.rwc.Close()
		}
	}
	return len(s.conns) == 0
}

func (s *Server) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// conn is one served connection.
type conn struct {
	srv   *Server
	rwc   Conn
	state atomic.Int32
	r     connReader
	br    *bufio.Reader // over r

	// wmu orders the 100 Continue a body read may write against the
	// handler's first response write.
	wmu  sync.Mutex
	head []byte // the response head being built
	// buf is the response body not yet written: chunkHead reserved bytes,
	// where a flush writes the chunk's size, then the data.
	buf  []byte
	werr error // sticky: a failed write leaves the response framing broken
}

func newConn(s *Server, rwc Conn) *conn {
	c := &conn{srv: s, rwc: rwc, buf: make([]byte, chunkHead, chunkHead+serverBuf+len("\r\n0\r\n\r\n"))}
	c.r.rwc = rwc
	c.r.cond.L = &c.r.mu
	c.br = bufio.NewReaderSize(&c.r, serverBuf)
	return c
}

// serve is the connection's loop: wait for a request while idle, read its
// head under the head limit, serve it, and go again while the connection
// can be kept.
func (c *conn) serve() {
	limit := c.srv.maxHead
	if limit <= 0 {
		limit = MaxHeadBytes
	}
	for {
		c.r.startHead(limit)
		if _, err := c.br.Peek(1); err != nil || !c.state.CompareAndSwap(stateIdle, stateActive) {
			c.close()
			return
		}
		req, err := ReadRequestHead(c.br)
		tooLong := c.r.endHead()
		switch {
		case err != nil && tooLong:
			c.refuse(StatusHeaderTooLarge)
			return
		case errors.Is(err, io.ErrUnexpectedEOF) || fromSocket(err):
			c.close() // the client or the connection went, not a bad request
			return
		case err == ErrVersion:
			c.refuse(StatusVersionUnsupported)
			return
		case err != nil:
			c.refuse(StatusBadRequest)
			return
		case req.Header.Get("Expect") != "" && !expectsContinue(req):
			c.refuse(StatusExpectationFailed)
			return
		}
		if !c.serveRequest(req) {
			return
		}
		if c.srv.closing.Load() || !c.state.CompareAndSwap(stateActive, stateIdle) {
			c.close()
			return
		}
	}
}

// fromSocket reports whether err is the connection failing rather than a
// bad request: a socket read fails with an *fs.PathError, a closed
// connection with os.ErrClosed and an expired deadline with
// os.ErrDeadlineExceeded.
func fromSocket(err error) bool {
	var pe *fs.PathError
	return errors.As(err, &pe) || errors.Is(err, os.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}

// peer names a connection's client for a log line.
func peer(c Conn) string {
	if tc, ok := c.(*TCPConn); ok {
		return tc.RemoteAddr()
	}
	return "?"
}

func expectsContinue(req *Request) bool {
	return req.ProtoMinor >= 1 && asciiEqualFold(req.Header.Get("Expect"), "100-continue")
}

// serveRequest runs the handler on one request and finishes its response.
// It reports whether the connection is kept for another request; when it
// is not, the connection is closed, or the handler's after a hijack.
func (c *conn) serveRequest(req *Request) bool {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.r.setCancel(cancel)
	req.ctx = ctx
	w := &response{c: c, req: req, header: make(Header), length: -1}
	var b *body
	if req.ContentLength == 0 {
		c.r.startBackgroundRead()
	} else {
		b = &body{src: req.Body, w: w, cont: expectsContinue(req)}
		req.Body = b
	}
	panicked := c.runHandler(w, req)
	cancel()
	if w.hijacked {
		return false
	}
	c.r.abortPendingRead()
	if panicked || w.flush(true) != nil {
		c.close()
		return false
	}
	closing := w.closeAfter || (w.length >= 0 && w.written < w.length && w.bodyAllowed())
	if b != nil && !b.finish() {
		c.lingerClose(b)
		return false
	}
	if closing {
		c.close()
	}
	return !closing
}

// runHandler calls the handler, turning a panic into a closed connection:
// the process lives on, and the panic is logged with its stack.
func (c *conn) runHandler(w *response, req *Request) (panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			panicked = true
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			log.Printf("wire: panic serving %s: %v\n%s", peer(c.rwc), v, buf)
		}
	}()
	c.srv.Handler.ServeHTTP(w, req)
	return false
}

// refuse answers a request the loop will not serve with a bare status and
// closes the connection.
func (c *conn) refuse(code int) {
	text := strconv.Itoa(code) + " " + statusText(code)
	io.WriteString(c.rwc, "HTTP/1.1 "+text+"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"+text)
	c.lingerClose(nil)
}

// lingerClose closes the connection after the client has had the time to
// read the response: it half-closes, then reads and drops what the client
// still sends until its end or lingerFor. Closing on unread input resets
// the connection, which can destroy the response before it is read. A
// handler's read still parked in b returns by the same deadline, and b
// fails every later one.
func (c *conn) lingerClose(b *body) {
	if cw, ok := c.rwc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	c.rwc.SetReadDeadline(time.Now().Add(lingerFor))
	if b != nil {
		b.Close()
	}
	for {
		if _, err := c.rwc.Read(c.buf[:cap(c.buf)]); err != nil {
			break
		}
	}
	c.close()
}

func (c *conn) close() {
	c.rwc.Close()
	c.srv.forget(c)
}

// connReader is what the request parser reads the connection through. It
// caps the bytes a request head may read, and once a request's body is
// consumed it keeps one background read pending until the handler returns,
// so a client that goes away cancels the request's context.
type connReader struct {
	rwc     Conn
	mu      sync.Mutex
	cond    sync.Cond // on mu: a background read ended
	cancel  context.CancelFunc
	limit   int64 // bytes the head being read may still take
	inHead  bool
	inRead  bool // a background read is pending
	aborted bool // ... and is being ended on purpose
	hasByte bool // it read the first byte of what comes next
	b       [1]byte
}

// startHead allows the head about to be read n bytes off the connection.
func (cr *connReader) startHead(n int64) {
	cr.mu.Lock()
	cr.limit, cr.inHead = n, true
	cr.mu.Unlock()
}

// endHead lifts the head's limit and reports whether the head used it up.
func (cr *connReader) endHead() (exhausted bool) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	cr.inHead = false
	return cr.limit <= 0
}

func (cr *connReader) setCancel(cancel context.CancelFunc) {
	cr.mu.Lock()
	cr.cancel = cancel
	cr.mu.Unlock()
}

func (cr *connReader) Read(p []byte) (int, error) {
	cr.mu.Lock()
	for cr.inRead { // a hijacker or a stray body read waits out the background read
		cr.cond.Wait()
	}
	if cr.inHead {
		if cr.limit <= 0 {
			cr.mu.Unlock()
			return 0, io.EOF
		}
		if int64(len(p)) > cr.limit {
			p = p[:cr.limit]
		}
	}
	if cr.hasByte && len(p) > 0 {
		p[0], cr.hasByte = cr.b[0], false
		cr.took(1)
		cr.mu.Unlock()
		return 1, nil
	}
	cr.mu.Unlock()
	n, err := cr.rwc.Read(p)
	cr.mu.Lock()
	cr.took(n)
	if err != nil && cr.cancel != nil {
		cr.cancel()
	}
	cr.mu.Unlock()
	return n, err
}

func (cr *connReader) took(n int) {
	if cr.inHead {
		cr.limit -= int64(n)
	}
}

// startBackgroundRead parks one read on the connection, unless one is
// pending or its byte is already in hand: its failure is the client going
// away, which cancels the request.
func (cr *connReader) startBackgroundRead() {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if cr.inRead || cr.hasByte {
		return
	}
	cr.inRead = true
	go cr.backgroundRead()
}

func (cr *connReader) backgroundRead() {
	n, err := cr.rwc.Read(cr.b[:])
	cr.mu.Lock()
	// A byte is the start of a pipelined request: it waits for the next
	// head, and the current request is not cancelled.
	cr.hasByte = n == 1
	if err != nil && !(cr.aborted && errors.Is(err, os.ErrDeadlineExceeded)) && cr.cancel != nil {
		cr.cancel()
	}
	cr.inRead, cr.aborted = false, false
	cr.mu.Unlock()
	cr.cond.Broadcast()
}

// abortPendingRead ends a pending background read and waits for it.
func (cr *connReader) abortPendingRead() {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if !cr.inRead {
		return
	}
	cr.aborted = true
	cr.rwc.SetReadDeadline(aLongTimeAgo)
	for cr.inRead {
		cr.cond.Wait()
	}
	cr.rwc.SetReadDeadline(time.Time{})
}

// body is a served request's body. It answers Expect: 100-continue on its
// first read, starts the background read at its end, and after the handler
// returns reads its rest for the next request — or fails every read.
type body struct {
	mu   sync.Mutex
	src  io.ReadCloser // ReadRequestHead's body
	w    *response
	cont bool // a 100 Continue is owed before the first read
	eof  bool
	done bool // the handler closed it or returned
}

func (b *body) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.done:
		return 0, errBodyClosed
	case b.eof:
		return 0, io.EOF
	}
	if b.cont {
		b.cont = false
		if err := b.w.writeContinue(); err != nil {
			return 0, err
		}
	}
	n, err := b.src.Read(p)
	if err == io.EOF {
		b.eof = true
		b.w.c.r.startBackgroundRead()
	}
	return n, err
}

// Close fails later reads; what is left of the body is the loop's.
func (b *body) Close() error {
	b.mu.Lock()
	b.done = true
	b.mu.Unlock()
	return nil
}

// finish reads what the handler left of the body, up to maxDrain, and
// reports whether the body is read to its end. A body a read is parked in,
// or whose client still waits for 100 Continue, is left as it is.
func (b *body) finish() bool {
	if !b.mu.TryLock() {
		return false
	}
	defer b.mu.Unlock()
	b.done = true
	if b.eof || b.cont {
		return b.eof
	}
	_, err := io.CopyN(io.Discard, b.src, maxDrain)
	return err == io.EOF
}

// response is the handler's ResponseWriter. The head is formatted when the
// status is set and goes out with the first flush, which also decides the
// framing: a body that ends before its first flush gets a Content-Length,
// any other a chunked encoding (or, for an HTTP/1.0 client, the
// connection's close).
type response struct {
	c      *conn
	req    *Request
	header Header
	status int // 0 until WriteHeader

	length     int64 // the declared Content-Length, or -1
	written    int64
	sent       bool // the head is on the wire
	chunked    bool
	closeAfter bool
	hijacked   bool
}

func (w *response) Header() Header { return w.header }

// WriteHeader formats the status line and the handler's headers, so that
// later changes to the header map do not apply, as with net/http. A 1xx
// status is not sent.
func (w *response) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("wire: invalid WriteHeader code %v", code))
	}
	if w.hijacked || w.status != 0 || code < 200 {
		return
	}
	c := w.c
	c.wmu.Lock()
	w.status = code
	c.wmu.Unlock()
	h := append(c.head[:0], "HTTP/1.0 "...)
	if w.req.ProtoMinor >= 1 {
		h[len("HTTP/1.")] = '1'
	}
	h = strconv.AppendInt(h, int64(code), 10)
	h = append(h, ' ')
	h = append(h, statusText(code)...)
	h = append(h, "\r\n"...)
	w.closeAfter = w.req.Close || w.req.ProtoMinor < 1
	for k, vs := range w.header {
		switch k {
		case "Transfer-Encoding", "Trailer":
			continue // the loop frames the body, and writes no trailers
		case "Connection":
			w.closeAfter = w.closeAfter || w.header.HasToken(k, "close")
			continue // the loop writes its own
		case "Content-Length":
			n, err := strconv.ParseInt(vs[0], 10, 64)
			if err != nil || n < 0 {
				continue
			}
			w.length = n
		}
		for _, v := range vs {
			h = appendField(h, k, v)
		}
	}
	c.head = h
}

// appendField appends one header line, with any CR or LF in it (a header
// injection) turned into a space.
func appendField(h []byte, k, v string) []byte {
	h = appendClean(h, k)
	h = append(h, ": "...)
	h = appendClean(h, v)
	return append(h, "\r\n"...)
}

func appendClean(h []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch == '\r' || ch == '\n' {
			ch = ' '
		}
		h = append(h, ch)
	}
	return h
}

// bodyAllowed reports whether the response carries a body on the wire.
func (w *response) bodyAllowed() bool {
	return w.req.Method != MethodHead && w.status != StatusNoContent && w.status != StatusNotModified
}

func (w *response) Write(p []byte) (int, error) {
	if w.hijacked {
		return 0, errHijacked
	}
	if w.status == 0 {
		w.WriteHeader(StatusOK)
	}
	switch {
	case w.req.Method == MethodHead:
		w.written += int64(len(p))
		return len(p), nil
	case !w.bodyAllowed():
		return 0, errBodyNotAllowed
	case w.length >= 0 && w.written+int64(len(p)) > w.length:
		return 0, errContentLength
	}
	w.written += int64(len(p))
	c, n := w.c, 0
	for len(p) > 0 {
		room := chunkHead + serverBuf - len(c.buf)
		if room == 0 {
			if err := w.flush(false); err != nil {
				return n, err
			}
			continue
		}
		k := min(room, len(p))
		c.buf = append(c.buf, p[:k]...)
		p, n = p[k:], n+k
	}
	return n, nil
}

// Flush sends the head, if it has not gone yet, and what is buffered. A
// failed write shows in the next Write.
func (w *response) Flush() {
	if !w.hijacked {
		w.flush(false)
	}
}

// Hijack hands the connection to the handler, with the bytes the loop has
// read past the request head in the returned reader. A pending response is
// flushed first.
func (w *response) Hijack() (Conn, *bufio.ReadWriter, error) {
	if w.hijacked {
		return nil, nil, errHijacked
	}
	if w.status != 0 {
		if err := w.flush(false); err != nil {
			return nil, nil, err
		}
	}
	c := w.c
	c.r.abortPendingRead()
	if c.r.hasByte {
		// The background read took the first byte the client sent after
		// the head; it must reach the hijacker's reader with the rest.
		if _, err := c.br.Peek(c.br.Buffered() + 1); err != nil {
			return nil, nil, fmt.Errorf("wire: hijack: %w", err)
		}
	}
	w.hijacked = true
	c.srv.forget(c)
	return c.rwc, bufio.NewReadWriter(c.br, bufio.NewWriter(c.rwc)), nil
}

// writeContinue answers Expect: 100-continue, unless the response has
// begun: a client that has its status needs no invitation to send.
func (w *response) writeContinue() error {
	c := w.c
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if w.status != 0 {
		return nil
	}
	_, err := io.WriteString(c.rwc, "HTTP/1.1 100 Continue\r\n\r\n")
	return err
}

// flush writes out the head, if it has not gone yet, and the buffered body
// as one chunk; final ends the body too. Each call is one write.
func (w *response) flush(final bool) error {
	c := w.c
	if c.werr != nil {
		return c.werr
	}
	if w.status == 0 {
		w.WriteHeader(StatusOK)
	}
	data := c.buf[chunkHead:]
	var out []byte
	if !w.sent {
		out = w.commit(final)
		w.sent = true
	} else {
		if len(data) == 0 && !(final && w.chunked) {
			return nil
		}
		start := chunkHead
		if w.chunked {
			if n := len(data); n > 0 {
				// The size in hex, right-aligned against its CRLF.
				c.buf[chunkHead-2], c.buf[chunkHead-1] = '\r', '\n'
				start -= 2
				for ; n > 0; n >>= 4 {
					start--
					c.buf[start] = "0123456789abcdef"[n&15]
				}
				c.buf = append(c.buf, '\r', '\n')
			}
			if final {
				c.buf = append(c.buf, "0\r\n\r\n"...)
			}
		}
		out = c.buf[start:]
	}
	_, err := c.rwc.Write(out)
	c.buf = c.buf[:chunkHead]
	if err != nil {
		c.werr = err
		c.r.mu.Lock()
		if c.r.cancel != nil {
			c.r.cancel() // the client is gone
		}
		c.r.mu.Unlock()
	}
	return err
}

// commit completes the head — framing and Connection — and returns it
// followed by the buffered body, framed.
func (w *response) commit(final bool) []byte {
	c := w.c
	h, data := c.head, c.buf[chunkHead:]
	if !w.bodyAllowed() {
		data = nil
	} else if w.length < 0 {
		switch {
		case final:
			w.length = int64(len(data))
			h = append(h, "Content-Length: "...)
			h = strconv.AppendInt(h, w.length, 10)
			h = append(h, "\r\n"...)
		case w.req.ProtoMinor >= 1:
			w.chunked = true
			h = append(h, "Transfer-Encoding: chunked\r\n"...)
		default:
			w.closeAfter = true // an HTTP/1.0 body of unknown length ends with the connection
		}
	}
	if c.srv.closing.Load() {
		w.closeAfter = true
	}
	if w.closeAfter && w.req.ProtoMinor >= 1 {
		h = append(h, "Connection: close\r\n"...)
	}
	h = append(h, "\r\n"...)
	if w.chunked && len(data) > 0 {
		h = strconv.AppendInt(h, int64(len(data)), 16)
		h = append(h, "\r\n"...)
		h = append(h, data...)
		h = append(h, "\r\n"...)
	} else {
		h = append(h, data...)
	}
	if final && w.chunked {
		h = append(h, "0\r\n\r\n"...)
	}
	c.head = h
	return h
}
