package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// echoObserve answers every request line with `{"seq":N}`, flushing each,
// like a node's observe handler with a one-line pipeline.
func echoObserve(w http.ResponseWriter, r *http.Request) {
	http.NewResponseController(w).EnableFullDuplex()
	sc := bufio.NewScanner(r.Body)
	for n := 0; sc.Scan(); n++ {
		fmt.Fprintf(w, "{\"seq\":%d}\n", n)
		w.(http.Flusher).Flush()
	}
}

func testServer(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// TestStreamRoundTrip reads a 200 stream to io.EOF: lines written before
// the headers exist are answered in order, CloseSend ends the body cleanly
// and the clean end is io.EOF, again on every later call.
func TestStreamRoundTrip(t *testing.T) {
	srv := testServer(t, echoObserve)
	s := OpenStream(context.Background(), srv.Client(), srv.URL)
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
	srv := testServer(t, func(w http.ResponseWriter, r *http.Request) {
		http.NewResponseController(w).EnableFullDuplex()
		n, _ := io.Copy(io.Discard, r.Body) // returns at EOF only
		fmt.Fprintf(w, "{\"read\":%d}\n", n)
	})
	s := OpenStream(context.Background(), srv.Client(), srv.URL)
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
		srv := testServer(t, func(w http.ResponseWriter, r *http.Request) {
			http.NewResponseController(w).EnableFullDuplex()
			if c.header != "" {
				w.Header().Set("Retry-After", c.header)
			}
			http.Error(w, "overloaded", http.StatusTooManyRequests)
		})
		s := OpenStream(context.Background(), srv.Client(), srv.URL)
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
	srv := testServer(t, func(w http.ResponseWriter, r *http.Request) {
		http.NewResponseController(w).EnableFullDuplex()
		w.WriteHeader(http.StatusInternalServerError)
		w.Write(bytes.Repeat([]byte("x"), 64<<10))
	})
	s := OpenStream(context.Background(), srv.Client(), srv.URL)
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

// TestStreamBadURL: a request that cannot be built surfaces on both sides
// instead of leaving a pipe nobody reads.
func TestStreamBadURL(t *testing.T) {
	s := OpenStream(context.Background(), http.DefaultClient, "http://bad host/")
	defer s.Abort()
	if _, err := s.Next(); err == nil {
		t.Fatal("Next on an unbuildable request succeeded")
	}
	if err := s.CloseSend(); err != nil { // nothing buffered: nothing to fail
		t.Fatal(err)
	}
	s.WriteLine(bytes.Repeat([]byte("x"), 64<<10))
	if err := s.Flush(); err == nil {
		t.Fatal("write into an unbuildable request succeeded")
	}
}

// TestStreamOverlongLine: a decision line over MaxLine ends Next with
// bufio.ErrTooLong rather than growing without bound.
func TestStreamOverlongLine(t *testing.T) {
	srv := testServer(t, func(w http.ResponseWriter, r *http.Request) {
		http.NewResponseController(w).EnableFullDuplex()
		w.Write([]byte("ok\n"))
		w.Write(bytes.Repeat([]byte("x"), MaxLine+1))
	})
	s := OpenStream(context.Background(), srv.Client(), srv.URL)
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
		srv := testServer(t, func(w http.ResponseWriter, r *http.Request) {
			http.NewResponseController(w).EnableFullDuplex()
			if midBody {
				w.Write([]byte("first\n"))
				w.(http.Flusher).Flush()
			}
			io.Copy(io.Discard, r.Body) // parked until the client goes away
			<-r.Context().Done()
			ended.Add(1)
		})
		hc := srv.Client()
		before := runtime.NumGoroutine()
		s := OpenStream(context.Background(), hc, srv.URL)
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
		hc.CloseIdleConnections()
		waitFor(t, "goroutines to settle", func() bool { return runtime.NumGoroutine() <= before })
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
