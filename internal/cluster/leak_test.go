package cluster

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"aovlis/internal/wire"
)

// TestRouterStreamGoroutines: a routed observe stream costs the router at
// most four goroutines while it runs, and none once it has ended — cleanly,
// by a whole-stream 429, and by a broken upstream whose failover budget
// runs out. The client is a wire.Stream, which runs no goroutine of its
// own, so the count is the router's and the stub node's: one goroutine on
// the node serves the upstream.
func TestRouterStreamGoroutines(t *testing.T) {
	const perStream = 4 + 1 // the router's bound, plus the node's handler
	stubs, _, srv := newTestCluster(t, 1, func(cfg *Config) {
		cfg.FailoverWait = 200 * time.Millisecond
	})
	base := runtime.NumGoroutine()
	settled := func(how string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("after a stream that ended %s: %d goroutines, baseline %d\n%s",
					how, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	open := func() *wire.Stream {
		t.Helper()
		s, err := wire.OpenStream(context.Background(), nil, srv.URL+"/channels/leak/observe")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteLine([]byte(obsLine(0.5) + "\n")); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := open()
	if line, err := s.Next(); err != nil {
		t.Fatalf("first decision: %q, %v", line, err)
	}
	if n := runtime.NumGoroutine() - base; n > perStream {
		buf := make([]byte, 1<<16)
		t.Fatalf("one live stream runs %d goroutines, want at most %d\n%s", n, perStream, buf[:runtime.Stack(buf, true)])
	}
	s.CloseSend()
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("clean end: %v, want io.EOF", err)
	}
	s.Abort()
	settled("cleanly")

	stubs[0].reject.Store(true)
	s = open()
	var ref *wire.Refused
	if _, err := s.Next(); !errors.As(err, &ref) {
		t.Fatalf("rejected stream: %v, want *wire.Refused", err)
	}
	s.Abort()
	settled("by a 429")

	stubs[0].reject.Store(false)
	stubs[0].fail500.Store(true)
	s = open()
	if line, err := s.Next(); err != nil || !strings.Contains(string(line), "failover budget") {
		t.Fatalf("broken upstream: %q, %v; want an error line naming the failover budget", line, err)
	}
	s.CloseSend()
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("end after a broken upstream: %v, want io.EOF", err)
	}
	s.Abort()
	settled("by a broken upstream")
}
