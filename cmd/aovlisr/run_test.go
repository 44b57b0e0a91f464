package main

// Unit tests for run()'s configuration surface — the multi-process tests
// exercise the serving path through a built binary, so the flag-to-router
// wiring needs its own in-process pins.

import (
	"net"
	"strings"
	"testing"
	"time"
)

func TestRunRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name    string
		nodes   string
		wantErr string
	}{
		{"missing nodes", "", "-nodes is required"},
		{"malformed spec", "just-a-name", "bad node spec"},
		{"empty url", "a=", "bad node spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run("127.0.0.1:0", tc.nodes, 4, time.Hour, 3, time.Second)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) = %v, want error containing %q", tc.nodes, err, tc.wantErr)
			}
		})
	}
}

// TestRunListenFailure: a valid fleet spec but an unbindable address must
// surface the listen error instead of hanging on the signal wait.
func TestRunListenFailure(t *testing.T) {
	// Occupy a port so ListenAndServe fails immediately.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	err = run(l.Addr().String(), "a=http://127.0.0.1:1", 4, time.Hour, 3, time.Second)
	if err == nil || !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("run on an occupied port = %v, want bind failure", err)
	}
}
