package wire

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Stream is the client half of the NDJSON observe stream: one in-flight
// POST …/observe whose request body is a pipe the caller writes observation
// lines into while decision lines come back on the response. The router's
// upstream, failover journal replay and the load generator are its callers.
//
// The write side (WriteLine, Flush, CloseSend) belongs to one goroutine and
// the read side (Next) to one goroutine; they may be different goroutines.
// Abort may be called from any goroutine, and must be called once the caller
// is done with the stream, however it ended.
type Stream struct {
	pw     *io.PipeWriter
	bw     *bufio.Writer // over pw; callers Flush exactly when about to block
	cancel context.CancelFunc

	ready chan struct{} // closed once Do has returned and resp, doErr are set
	resp  *http.Response
	doErr error

	lines func() ([]byte, error) // read side: set once the headers say 200
	err   error                  // read side: what ended the stream
}

// OpenStream starts POST url over a pipe and returns at once: a node sends
// its response headers only with its first decision, so Do runs on its own
// goroutine and the first Next waits for it. A request that cannot be built
// is reported by the first Next as well.
func OpenStream(ctx context.Context, hc *http.Client, url string) *Stream {
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(ctx)
	s := &Stream{pw: pw, bw: bufio.NewWriterSize(pw, 32<<10), cancel: cancel, ready: make(chan struct{})}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
	if err != nil {
		pr.CloseWithError(err)
		s.doErr = err
		close(s.ready)
		return s
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	// Do's goroutine owns the response: whenever it arrives, it is closed
	// when the context ends, which Abort sees to.
	go func() {
		s.resp, s.doErr = hc.Do(req)
		close(s.ready)
		if s.resp != nil {
			<-ctx.Done()
			s.resp.Body.Close()
		}
	}()
	return s
}

// WriteLine buffers one newline-terminated observation line.
func (s *Stream) WriteLine(line []byte) error {
	_, err := s.bw.Write(line)
	return err
}

// Flush pushes buffered lines to the node. A line still in the buffer can
// never be answered, so callers flush before every wait on a decision.
func (s *Stream) Flush() error { return s.bw.Flush() }

// CloseSend ends the request body cleanly (EOF, not an error): the node
// drains and answers everything it has pipelined, and the response stays
// readable until the node finishes it. Calling it again does nothing.
func (s *Stream) CloseSend() error {
	err := s.bw.Flush()
	s.pw.Close()
	return err
}

// Next returns the next decision line, valid until the following call — the
// signature Feed takes. The first call waits for the response headers and
// classifies them once: 200 streams lines (bounded by MaxLine) until io.EOF
// at the clean end, 429 is *Refused, anything else *StatusError.
func (s *Stream) Next() ([]byte, error) {
	if s.err == nil && s.lines == nil {
		s.err = s.awaitHeaders()
	}
	if s.err != nil {
		return nil, s.err
	}
	line, err := s.lines()
	s.err = err
	return line, err
}

func (s *Stream) awaitHeaders() error {
	<-s.ready
	if s.doErr != nil {
		return s.doErr
	}
	if s.resp.StatusCode == http.StatusOK {
		s.lines = ScanLines(s.resp.Body)
		return nil
	}
	// A refusal's body is short: reading it (bounded) also lets the
	// connection go back to the pool.
	b, _ := io.ReadAll(io.LimitReader(s.resp.Body, 4<<10))
	if s.resp.StatusCode != http.StatusTooManyRequests {
		return &StatusError{Code: s.resp.StatusCode, Body: strings.TrimSpace(string(b))}
	}
	ra := s.resp.Header.Get("Retry-After")
	if ra == "" {
		ra = "1" // the node always sets it; a proxy in between may strip it
	}
	return &Refused{RetryAfter: ra}
}

// Abort tears the stream down: it fails any write parked in the pipe and
// cancels the request, on which Do's goroutine closes the response whether
// it has arrived or is still to — so a Next parked in a read returns and no
// goroutine or connection outlives the caller (a Feed over Next ends with
// it). After a clean io.EOF it only releases that goroutine and the context.
// Calling it again does nothing.
func (s *Stream) Abort() {
	s.pw.CloseWithError(io.ErrClosedPipe)
	s.cancel()
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
