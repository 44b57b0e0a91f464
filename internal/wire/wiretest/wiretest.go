// Package wiretest hosts a handler on a wire.Server over a loopback
// listener: the stand-in for httptest.Server, so that handler tests run the
// HTTP loop the daemons run.
package wiretest

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"aovlis/internal/wire"
)

// Server is a running wire.Server on 127.0.0.1.
type Server struct {
	// URL is the server's base URL, http://127.0.0.1:port.
	URL string

	srv  wire.Server
	l    *trackListener
	done chan struct{}
}

// NewServer serves h on a fresh loopback port until the test ends.
func NewServer(t testing.TB, h wire.Handler) *Server {
	t.Helper()
	return NewServerOn(t, h, nil)
}

// NewServerOn is NewServer with the listener passed through wrap first
// (nil: as it is), for tests that shape the server's connections.
func NewServerOn(t testing.TB, h wire.Handler, wrap func(wire.Listener) wire.Listener) *Server {
	t.Helper()
	l, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{URL: "http://" + l.Addr(), l: &trackListener{Listener: l}, done: make(chan struct{})}
	s.srv.Handler = h
	var ln wire.Listener = s.l
	if wrap != nil {
		ln = wrap(ln)
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	t.Cleanup(s.Close)
	return s
}

// Close shuts the server down: it stops accepting, and waits up to five
// seconds for the requests in flight before it cuts every connection left.
// Calling it again does nothing.
func (s *Server) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		s.CloseClientConnections()
	}
	<-s.done
}

// CloseClientConnections cuts every connection the server has accepted,
// hijacked ones included; the server goes on accepting new ones.
func (s *Server) CloseClientConnections() {
	s.l.mu.Lock()
	defer s.l.mu.Unlock()
	for _, c := range s.l.conns {
		c.Close()
	}
	s.l.conns = nil
}

// trackListener remembers the connections it accepts.
type trackListener struct {
	wire.Listener
	mu    sync.Mutex
	conns []wire.Conn
}

func (l *trackListener) Accept() (wire.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

// Recorder is a wire.ResponseWriter that keeps what a handler wrote: the
// stand-in for httptest.ResponseRecorder. Its zero value is ready.
type Recorder struct {
	Code    int // the status written, 200 when only a body was
	Body    bytes.Buffer
	Flushed bool

	header wire.Header
}

func (r *Recorder) Header() wire.Header {
	if r.header == nil {
		r.header = make(wire.Header)
	}
	return r.header
}

func (r *Recorder) WriteHeader(code int) {
	if r.Code == 0 {
		r.Code = code
	}
}

func (r *Recorder) Write(p []byte) (int, error) {
	r.WriteHeader(200)
	return r.Body.Write(p)
}

func (r *Recorder) Flush() {
	r.WriteHeader(200)
	r.Flushed = true
}

// Hijack fails: a Recorder has no connection.
func (r *Recorder) Hijack() (wire.Conn, *bufio.ReadWriter, error) {
	return nil, nil, errors.New("wiretest: a Recorder cannot be hijacked")
}
