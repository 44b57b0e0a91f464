package main

import (
	"bufio"
	"os"
	"path/filepath"
	"testing"

	"aovlis/internal/wire"
)

// TestOutIsObservationLines: -out is the stream aovlisd's observe endpoint
// eats — every line decodes as an observation of (-classes, 19) dims.
func TestOutIsObservationLines(t *testing.T) {
	const sec, classes = 40, 24
	out := filepath.Join(t.TempDir(), "features.ndjson")
	if err := run("INF", sec, classes, 3, false, out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var o wire.Observation
		if err := wire.DecodeObservation(sc.Bytes(), &o); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if len(o.Action) != classes || len(o.Audience) != 19 {
			t.Fatalf("line %d has dims %d/%d, want %d/19", lines, len(o.Action), len(o.Audience), classes)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("-out wrote no lines")
	}
}
