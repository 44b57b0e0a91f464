package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// echoObserve answers every request line with `{"seq":N}`, flushing each,
// like a node's observe handler with a one-line pipeline.
func echoObserve(w ResponseWriter, r *Request) {
	sc := bufio.NewScanner(r.Body)
	for n := 0; sc.Scan(); n++ {
		fmt.Fprintf(w, "{\"seq\":%d}\n", n)
		w.Flush()
	}
}

// open is OpenStream under the background context with the plain dialer,
// failing the test when the dial does.
func open(t *testing.T, rawurl string) *Stream {
	t.Helper()
	s, err := OpenStream(context.Background(), nil, rawurl)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamRoundTrip reads a 200 stream to io.EOF: lines written before
// the headers exist are answered in order, CloseSend ends the body cleanly
// and the clean end is io.EOF, again on every later call.
func TestStreamRoundTrip(t *testing.T) {
	srv := testServer(t, echoObserve)
	s := open(t, srv.URL)
	defer s.Abort()
	for i := 0; i < 3; i++ {
		if err := s.WriteLine([]byte("{}\n")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		line, err := s.Next()
		if want := fmt.Sprintf(`{"seq":%d}`, i); err != nil || string(line) != want {
			t.Fatalf("line %d: %q, %v; want %q", i, line, err, want)
		}
	}
	if err := s.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseSend(); err != nil {
		t.Fatalf("second CloseSend: %v", err)
	}
	for i := 0; i < 2; i++ {
		if line, err := s.Next(); err != io.EOF {
			t.Fatalf("after CloseSend: %q, %v; want io.EOF", line, err)
		}
	}
}

// TestStreamCloseSendHalfCloses: the handler reads EOF on the request body
// while it can still write — the tail it was holding for that EOF arrives.
func TestStreamCloseSendHalfCloses(t *testing.T) {
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		n, _ := io.Copy(io.Discard, r.Body) // returns at EOF only
		fmt.Fprintf(w, "{\"read\":%d}\n", n)
	})
	s := open(t, srv.URL)
	defer s.Abort()
	s.WriteLine([]byte("abc\n"))
	if err := s.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if line, err := s.Next(); err != nil || string(line) != `{"read":4}` {
		t.Fatalf("tail after half-close: %q, %v", line, err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("end: %v, want io.EOF", err)
	}
}

// TestStreamRefused: a 429 is *Refused carrying the raw Retry-After, "1"
// when the header is missing; Seconds parses it once, leniently.
func TestStreamRefused(t *testing.T) {
	for _, c := range []struct {
		header, raw string
		secs        int
	}{
		{"7", "7", 7},
		{"", "1", 1},
		{"Wed, 21 Oct 2026 07:28:00 GMT", "Wed, 21 Oct 2026 07:28:00 GMT", 1},
		{"-3", "-3", 1},
	} {
		srv := testServer(t, func(w ResponseWriter, r *Request) {
			if c.header != "" {
				w.Header().Set("Retry-After", c.header)
			}
			Error(w, "overloaded", http.StatusTooManyRequests)
		})
		s := open(t, srv.URL)
		s.WriteLine([]byte("{}\n"))
		s.Flush()
		_, err := s.Next()
		var ref *Refused
		if !errors.As(err, &ref) || ref.RetryAfter != c.raw || ref.Seconds() != c.secs {
			t.Fatalf("Retry-After %q: %v (%+v), want raw %q / %d s", c.header, err, ref, c.raw, c.secs)
		}
		if _, again := s.Next(); again != err {
			t.Fatalf("second Next: %v, want the same refusal", again)
		}
		s.Abort()
	}
}

// TestStreamStatusError: any other status is *StatusError with a bounded
// body, however much the server sends.
func TestStreamStatusError(t *testing.T) {
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write(bytes.Repeat([]byte("x"), 64<<10))
	})
	s := open(t, srv.URL)
	defer s.Abort()
	_, err := s.Next()
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("500: %.80v, want *StatusError", err)
	}
	if se.Code != 500 || len(se.Body) != 4<<10 {
		t.Fatalf("status %d with %d body bytes, want 500 with 4 KiB", se.Code, len(se.Body))
	}
	if !strings.Contains(err.Error(), "observe status 500") {
		t.Fatalf("message %.80q does not name the status", err.Error())
	}
}

// TestStreamBadURL: a URL that cannot be parsed, one that is not plaintext
// http and one whose port refuses the dial are OpenStream's own errors —
// there is no stream to abort.
func TestStreamBadURL(t *testing.T) {
	for _, c := range []struct{ url, want string }{
		{"http://bad host/", "invalid character"},
		{"https://127.0.0.1/", "unsupported scheme"},
		{"http://127.0.0.1:1/channels/a/observe", "refused"},
	} {
		s, err := OpenStream(context.Background(), nil, c.url)
		if err == nil || s != nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("OpenStream(%q) = %v, %v; want no stream and an error naming %q", c.url, s, err, c.want)
		}
	}
}

// TestHostPort pins the one place a URL's port is defaulted: bare hosts get
// the scheme's port, explicit ports survive, and an IPv6 literal is bracketed
// exactly once either way.
func TestHostPort(t *testing.T) {
	for _, c := range []struct{ raw, want string }{
		{"http://node-a/live/x", "node-a:80"},
		{"http://node-a:7601", "node-a:7601"},
		{"ws://[::1]/live/x", "[::1]:80"},
		{"http://[::1]:8080", "[::1]:8080"},
		{"https://node-a", "node-a:443"},
		{"https://[fe80::1]", "[fe80::1]:443"},
	} {
		u, err := url.Parse(c.raw)
		if err != nil {
			t.Fatal(err)
		}
		if got := HostPort(u); got != c.want {
			t.Errorf("HostPort(%q) = %q, want %q", c.raw, got, c.want)
		}
	}
	// Through the stream's dial: a portless IPv6 literal reaches the TCP
	// dial as [::1]:80 (refused here) instead of failing on "missing port in
	// address".
	var dialed string
	dial := func(ctx context.Context, network, addr string) (Conn, error) {
		dialed = addr
		return nil, errors.New("refused")
	}
	if _, err := OpenStream(context.Background(), dial, "http://[::1]/channels/a/observe"); err == nil || dialed != "[::1]:80" {
		t.Fatalf("portless IPv6 open dialed %q: %v", dialed, err)
	}
}

// TestStreamOverlongLine: a decision line over MaxLine ends Next with
// bufio.ErrTooLong rather than growing without bound.
func TestStreamOverlongLine(t *testing.T) {
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		w.Write([]byte("ok\n"))
		w.Write(bytes.Repeat([]byte("x"), MaxLine+1))
	})
	s := open(t, srv.URL)
	defer s.Abort()
	if line, err := s.Next(); err != nil || string(line) != "ok" {
		t.Fatalf("first line: %q, %v", line, err)
	}
	if _, err := s.Next(); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("over-long line: %v, want bufio.ErrTooLong", err)
	}
}

// TestStreamAbort aborts before the headers exist and in the middle of the
// body, with Next parked on another goroutine both times: Next returns, the
// handler sees its request end, and no goroutine is left behind.
func TestStreamAbort(t *testing.T) {
	for _, midBody := range []bool{false, true} {
		var ended atomic.Int32
		srv := testServer(t, func(w ResponseWriter, r *Request) {
			if midBody {
				w.Write([]byte("first\n"))
				w.Flush()
			}
			io.Copy(io.Discard, r.Body) // parked until the client goes away
			<-r.Context().Done()
			ended.Add(1)
		})
		before := runtime.NumGoroutine()
		s := open(t, srv.URL)
		s.WriteLine([]byte("{}\n"))
		s.Flush()
		if midBody {
			if line, err := s.Next(); err != nil || string(line) != "first" {
				t.Fatalf("first line: %q, %v", line, err)
			}
		}
		parked := make(chan error, 1)
		go func() {
			_, err := s.Next()
			parked <- err
		}()
		time.Sleep(20 * time.Millisecond) // let Next park (either order is correct)
		s.Abort()
		s.Abort()
		select {
		case err := <-parked:
			if err == nil || err == io.EOF {
				t.Fatalf("midBody=%v: parked Next returned %v after Abort", midBody, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("midBody=%v: Next still parked after Abort", midBody)
		}
		if err := s.WriteLine(bytes.Repeat([]byte("x"), 64<<10)); err == nil {
			t.Fatalf("midBody=%v: write after Abort succeeded", midBody)
		}
		waitFor(t, "handler to see its request end", func() bool { return ended.Load() == 1 })
		waitFor(t, "goroutines to settle", func() bool { return runtime.NumGoroutine() <= before })
	}
}

// TestStreamDeadline: the opening context's deadline bounds the whole
// exchange — a node that takes the request and never answers costs the
// deadline, not a parked reader — and its end fails the write side too.
func TestStreamDeadline(t *testing.T) {
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		io.Copy(io.Discard, r.Body)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	s, err := OpenStream(ctx, nil, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	start := time.Now()
	if _, err := s.Next(); err == nil || err == io.EOF {
		t.Fatalf("Next on a silent node: %v, want an error", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("the deadline ended Next after %v", waited)
	}
	s.WriteLine([]byte("{}\n"))
	if err := s.Flush(); err == nil {
		t.Fatal("a write after the deadline succeeded")
	}
}

// TestStreamChunks: lines reach the node byte for byte whatever the chunk
// sizes — one-line flushes, a long unflushed run that WriteLine pushes out
// by itself at flushAt, and a line longer than flushAt — and CloseSend ends
// the body.
func TestStreamChunks(t *testing.T) {
	got := make(chan []byte, 1)
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		b, _ := io.ReadAll(r.Body)
		got <- b
	})
	s := open(t, srv.URL)
	defer s.Abort()
	var want bytes.Buffer
	write := func(line string) {
		want.WriteString(line)
		if err := s.WriteLine([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	write("a\n")
	s.Flush()
	for i := 0; len(s.buf) < flushAt-100; i++ {
		write(fmt.Sprintf("{\"i\":%d}\n", i))
	}
	write(strings.Repeat("y", 100) + "\n") // crosses flushAt: out by itself
	if len(s.buf) != chunkHead {
		t.Fatalf("%d bytes still buffered past flushAt", len(s.buf)-chunkHead)
	}
	write(strings.Repeat("z", 3*flushAt) + "\n")
	write("b\n")
	if err := s.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteLine([]byte("c\n")); err == nil {
		t.Fatal("a write after CloseSend succeeded")
	}
	select {
	case b := <-got:
		if !bytes.Equal(b, want.Bytes()) {
			t.Fatalf("node read %d bytes, want the %d written", len(b), want.Len())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the node never saw the body end")
	}
}

// rawPeer serves one observe stream written against the socket: it reads the
// request head with http.ReadRequest, answers 200 with a chunked body, and
// writes one canned decision chunk per request line. Unlike net/http's
// server, which formats a chunk header per flush, it allocates nothing per
// line, so a count over a round trip is the client's.
func rawPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dec := `{"channel":"a","seq":0,"anomaly":false,"score":1.5}` + "\n"
	chunk := []byte(fmt.Sprintf("%x\r\n%s\r\n", len(dec), dec))
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		req, err := http.ReadRequest(bufio.NewReader(c))
		if err != nil {
			return
		}
		if _, err := io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n"); err != nil {
			return
		}
		sc := bufio.NewScanner(req.Body)
		sc.Buffer(make([]byte, 0, 4<<10), MaxLine)
		for sc.Scan() {
			if _, err := c.Write(chunk); err != nil {
				return
			}
		}
		io.WriteString(c, "0\r\n\r\n")
	}()
	return "http://" + ln.Addr().String() + "/channels/a/observe"
}

// TestStreamSteadyStateAllocs: a warm WriteLine/Flush/Next round trip —
// one chunk out, one decision line back — allocates nothing.
func TestStreamSteadyStateAllocs(t *testing.T) {
	s := open(t, rawPeer(t))
	defer s.Abort()
	line := append(canonicalLine(), '\n')
	roundTrip := func() {
		if err := s.WriteLine(line); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if d, err := s.Next(); err != nil || !bytes.HasPrefix(d, []byte(`{"channel":"a"`)) {
			t.Fatalf("decision %q, %v", d, err)
		}
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(2000, roundTrip); n != 0 {
		t.Fatalf("a warm round trip allocates %v times, want 0", n)
	}
	if err := s.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("end: %v, want io.EOF", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("timed out waiting for %s\n%s", what, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFeedDepth: with nobody receiving, the feeder reads exactly depth
// messages ahead — it asks for the next one only once it owns a buffer.
func TestFeedDepth(t *testing.T) {
	for _, depth := range []int{1, 2, 34} {
		var calls atomic.Int32
		stop := make(chan struct{})
		f := Feed(stop, func() ([]byte, error) {
			calls.Add(1)
			return []byte("m"), nil
		}, depth)
		waitFor(t, "the feeder to run ahead", func() bool { return len(f.C) == depth })
		time.Sleep(10 * time.Millisecond)
		if n := calls.Load(); int(n) != depth {
			t.Fatalf("depth %d: reader called %d times ahead of an idle receiver", depth, n)
		}
		// One buffer back buys exactly one more message.
		f.Recycle(<-f.C)
		waitFor(t, "the recycled buffer to be refilled", func() bool { return calls.Load() == int32(depth)+1 })
		close(stop)
		for range f.C {
		}
	}
}

// TestDo: a Do request goes out with its headers, a body chunked, and
// Connection: close; the response comes back with its status, headers and
// body, whether the server framed it with a length or chunked, and a
// HEAD response has no body.
func TestDo(t *testing.T) {
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("X-Got", fmt.Sprintf("%s %s %d %q close=%v %s", r.Method, r.URL.RequestURI(),
			r.ContentLength, b, r.Close, r.Header.Get("X-Sent")))
		w.WriteHeader(http.StatusCreated)
		io.WriteString(w, "made")
		if r.URL.Query().Get("flush") != "" {
			w.Flush()
		}
		io.WriteString(w, " it")
	})
	for _, tc := range []struct {
		method, path string
		body         io.Reader
		want, body2  string
	}{
		{MethodPut, "/s?flush=1", strings.NewReader("snapshot bytes"), `PUT /s?flush=1 -1 "snapshot bytes" close=true yes`, "made it"},
		{MethodGet, "/g", nil, `GET /g 0 "" close=true yes`, "made it"},
		{MethodHead, "/h", nil, `HEAD /h 0 "" close=true yes`, ""},
	} {
		req, err := NewRequest(tc.method, srv.URL+tc.path, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("x-sent", "yes")
		resp, err := Do(context.Background(), nil, req)
		if err != nil {
			t.Fatalf("%s: %v", tc.method, err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated || resp.Status != "201 Created" ||
			resp.Header.Get("X-Got") != tc.want || string(b) != tc.body2 {
			t.Fatalf("%s: %s %q %q, %v; want 201 %q %q", tc.method, resp.Status, resp.Header.Get("X-Got"), b, err, tc.want, tc.body2)
		}
	}
}

// TestDoBodyCloseDuringRead: closing a Do response body while another
// goroutine is parked reading it ends the read, and only then is the
// body's reader recycled — the next Do on it must not see the old stream.
func TestDoBodyCloseDuringRead(t *testing.T) {
	release := make(chan struct{})
	srv := testServer(t, func(w ResponseWriter, r *Request) {
		io.WriteString(w, "first")
		w.Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	defer close(release)
	for i := 0; i < 20; i++ {
		req, err := NewRequest(MethodGet, srv.URL+"/slow", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := Do(context.Background(), nil, req)
		if err != nil {
			t.Fatal(err)
		}
		read := make(chan error, 1)
		go func() {
			_, err := io.Copy(io.Discard, resp.Body)
			read <- err
		}()
		time.Sleep(time.Millisecond)
		resp.Body.Close()
		if err := <-read; err == nil {
			t.Fatal("a read parked on a closed body returned no error")
		}
	}
}
