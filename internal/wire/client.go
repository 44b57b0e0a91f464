package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Stream is the client half of the NDJSON observe stream: one POST …/observe
// on a TCP connection of its own, written by hand — the request head, then a
// chunked body of the caller's observation lines — while decision lines come
// back on the response, read with ReadResponseHead. The router's upstream,
// failover journal replay and the load generator are its callers.
//
// The write side (WriteLine, Flush, CloseSend) belongs to one goroutine and
// the read side (Next) to one goroutine; they may be different goroutines.
// The stream runs none of its own. Abort may be called from any goroutine,
// and must be called once the caller is done with the stream, however it
// ended.
type Stream struct {
	conn Conn
	stop func() bool // unhooks the close armed on the opening context

	// Write side. buf holds chunkHead reserved bytes, where Flush writes the
	// chunk's size, then the lines of the chunk being filled.
	buf  []byte
	werr error // sticky: a failed write leaves the chunk framing broken

	// Read side.
	br    *bufio.Reader
	lines func() ([]byte, error) // set once the headers say 200
	err   error                  // what ended the stream
}

const (
	// chunkHead is room for a chunk size of up to eight hex digits and its
	// CRLF, ahead of the lines in a Stream's buffer.
	chunkHead = 10
	// flushAt is the buffered body a WriteLine pushes out by itself: a
	// caller that writes a long run of lines without waiting on a decision
	// (a journal replay) must not hold all of them.
	flushAt = 32 << 10
	// streamReadBuf is the reader the response is parsed from.
	streamReadBuf = 4 << 10
)

// Dialer opens the connection a Stream runs on. It has
// net.Dialer.DialContext's shape, so a test can shape the socket with
// net's dialer.
type Dialer func(ctx context.Context, network, addr string) (Conn, error)

// dialTimeout bounds the connect of OpenStream and Do when the caller
// passes no Dialer.
const dialTimeout = 10 * time.Second

// dialTCP is the Dialer of OpenStream and Do when the caller passes none.
func dialTCP(ctx context.Context, _, addr string) (Conn, error) {
	c, err := Dial(ctx, addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// errSendClosed is what a write after CloseSend returns.
var errSendClosed = errors.New("wire: observe stream: write after CloseSend")

// OpenStream dials url's host with dial (nil: a plain TCP dial) under ctx
// and writes the request head. It does not wait for the response: a node
// sends its headers only with its first decision, which the first Next
// reads. ctx bounds the whole exchange — its end, a deadline included,
// closes the connection, failing any parked read or write. Only a plaintext
// http URL can be opened.
func OpenStream(ctx context.Context, dial Dialer, rawurl string) (*Stream, error) {
	u, err := url.Parse(rawurl)
	if err != nil {
		return nil, fmt.Errorf("wire: observe stream: %w", err)
	}
	conn, err := dialURL(ctx, dial, u)
	if err != nil {
		return nil, fmt.Errorf("wire: POST %s: %w", rawurl, err)
	}
	s := &Stream{conn: conn, buf: make([]byte, chunkHead, 4<<10), br: bufio.NewReaderSize(conn, streamReadBuf)}
	s.stop = context.AfterFunc(ctx, func() { conn.Close() })
	head := "POST " + u.RequestURI() + " HTTP/1.1\r\nHost: " + u.Host +
		"\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n"
	if _, err := io.WriteString(conn, head); err != nil {
		s.Abort()
		return nil, fmt.Errorf("wire: POST %s: %w", rawurl, err)
	}
	return s, nil
}

// Do sends req on a connection of its own, dialed with dial (nil: a plain
// TCP dial) under ctx, and returns the response: the one-shot twin of
// OpenStream, for admin calls, probes and relays. The connection closes
// when ctx ends or the response body is closed, so ctx bounds the whole
// exchange, body included. Do sets req.Close. A request body is written
// beside the response read, so an early answer (a 413 before the upload
// ends) is the result rather than a broken write; closing the response
// body waits until nothing reads req.Body any more. The request goes with
// Connection: close. Only a plaintext http URL can be sent.
func Do(ctx context.Context, dial Dialer, req *Request) (*Response, error) {
	conn, err := dialURL(ctx, dial, req.URL)
	if err != nil {
		return nil, fmt.Errorf("wire: %s %s: %w", req.Method, req.URL, err)
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	wrote := make(chan error, 1)
	if req.Body == nil {
		wrote <- req.write(conn)
	} else {
		go func() { wrote <- req.write(conn) }()
	}
	br := doReaders.Get().(*bufio.Reader)
	br.Reset(conn)
	resp, err := ReadResponseHead(br, req.Method)
	if err != nil {
		stop()
		conn.Close()
		if werr := <-wrote; werr != nil {
			err = werr
		}
		br.Reset(nil)
		doReaders.Put(br)
		return nil, fmt.Errorf("wire: %s %s: %w", req.Method, req.URL, err)
	}
	resp.Body = &doBody{body: resp.Body, br: br, conn: conn, stop: stop, wrote: wrote}
	return resp, nil
}

// doReaders recycles the readers Do parses responses from: a router
// probes its nodes every few hundred milliseconds, and a fresh reader a
// call was most of what those probes allocated.
var doReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, streamReadBuf) }}

// doBody is a Do response's body; closing it closes the connection and
// returns its reader to doReaders. A read holds mu, so Close — which
// closes the connection first, ending any read parked on it — only
// recycles the reader once no read can touch it again.
type doBody struct {
	mu     sync.Mutex
	body   io.ReadCloser
	br     *bufio.Reader
	conn   Conn
	stop   func() bool
	wrote  chan error
	closed bool
	once   sync.Once
}

func (b *doBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, errBodyClosed
	}
	return b.body.Read(p)
}

func (b *doBody) Close() error {
	b.once.Do(func() {
		b.stop()
		b.conn.Close()
		<-b.wrote
		b.mu.Lock()
		b.closed = true
		b.br.Reset(nil)
		doReaders.Put(b.br)
		b.mu.Unlock()
	})
	return nil
}

// dialURL dials u's host with dial (nil: a plain TCP dial) under ctx; u
// must be a plaintext http URL.
func dialURL(ctx context.Context, dial Dialer, u *url.URL) (Conn, error) {
	if u.Scheme != "http" {
		return nil, fmt.Errorf("unsupported scheme %q (plaintext only)", u.Scheme)
	}
	if dial == nil {
		dial = dialTCP
	}
	return dial(ctx, "tcp", HostPort(u))
}

// WriteLine buffers one newline-terminated observation line. Once flushAt
// bytes are waiting it flushes them itself.
func (s *Stream) WriteLine(line []byte) error {
	if s.werr != nil {
		return s.werr
	}
	s.buf = append(s.buf, line...)
	if len(s.buf) >= flushAt {
		return s.Flush()
	}
	return nil
}

// Flush pushes buffered lines to the node as one chunk in one write. A line
// still in the buffer can never be answered, so callers flush before every
// wait on a decision.
func (s *Stream) Flush() error { return s.flush("") }

// flush writes the buffered lines as one chunk, followed by tail. With
// neither there is nothing to fail, after CloseSend included.
func (s *Stream) flush(tail string) error {
	if len(s.buf) == chunkHead && tail == "" {
		return nil
	}
	if s.werr != nil {
		return s.werr
	}
	start := chunkHead
	if n := len(s.buf) - chunkHead; n > 0 {
		// The size in hex, right-aligned against its CRLF.
		s.buf[chunkHead-2], s.buf[chunkHead-1] = '\r', '\n'
		start -= 2
		for ; n > 0; n >>= 4 {
			start--
			s.buf[start] = "0123456789abcdef"[n&15]
		}
		s.buf = append(s.buf, '\r', '\n')
	}
	s.buf = append(s.buf, tail...)
	_, err := s.conn.Write(s.buf[start:])
	s.buf = s.buf[:chunkHead]
	s.werr = err
	return err
}

// CloseSend flushes and ends the request body cleanly (the last chunk, not
// an error): the node drains and answers everything it has pipelined, and
// the response stays readable until the node finishes it. Later writes
// fail; calling it again does nothing.
func (s *Stream) CloseSend() error {
	if s.werr == errSendClosed {
		return nil
	}
	if err := s.flush("0\r\n\r\n"); err != nil {
		return err
	}
	s.werr = errSendClosed
	return nil
}

// Next returns the next decision line, valid until the following call — the
// signature Feed takes. The first call reads the response headers and
// classifies them once: 200 streams lines (bounded by MaxLine) until io.EOF
// at the clean end, 429 is *Refused, anything else *StatusError.
func (s *Stream) Next() ([]byte, error) {
	if s.err == nil && s.lines == nil {
		s.err = s.readHeaders()
	}
	if s.err != nil {
		return nil, s.err
	}
	line, err := s.lines()
	s.err = err
	return line, err
}

func (s *Stream) readHeaders() error {
	resp, err := ReadResponseHead(s.br, MethodPost)
	if err != nil {
		return fmt.Errorf("wire: reading observe response: %w", err)
	}
	if resp.StatusCode == StatusOK {
		s.lines = ScanLines(resp.Body)
		return nil
	}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != StatusTooManyRequests {
		return &StatusError{Code: resp.StatusCode, Body: strings.TrimSpace(string(b))}
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		ra = "1" // the node always sets it; a proxy in between may strip it
	}
	return &Refused{RetryAfter: ra}
}

// Abort tears the stream down: it closes the connection, so a write or a
// Next parked on it returns and nothing outlives the caller (a Feed over
// Next ends with it), and it unhooks the close armed on the opening
// context. Calling it again does nothing.
func (s *Stream) Abort() {
	s.stop()
	s.conn.Close()
}

// Refused is a whole-stream 429: admission control turned the stream away
// before scoring a line. RetryAfter is the node's raw Retry-After value
// ("1" when the header is missing), ready to relay.
type Refused struct{ RetryAfter string }

func (e *Refused) Error() string {
	return "observe stream refused (429, Retry-After " + e.RetryAfter + ")"
}

// Seconds is RetryAfter as whole seconds; anything that is not a positive
// integer (an HTTP date, junk) counts as one second.
func (e *Refused) Seconds() int {
	if v, err := strconv.Atoi(e.RetryAfter); err == nil && v > 0 {
		return v
	}
	return 1
}

// StatusError is an observe response that is neither 200 nor 429, with the
// first 4 KiB of its body.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("observe status %d: %s", e.Code, e.Body)
}
