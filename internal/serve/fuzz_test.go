package serve

import (
	"bytes"
	"errors"
	"testing"
)

// exportFuzzSeeds is the channel "fuzz" exported mid-stream, then the same
// stream cut short at the envelope, the manifest and the detector payload,
// and channel "other"'s export: an intact stream whose envelope names the
// wrong id.
func exportFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	tmpl := trainTemplate(tb)
	p, err := NewDetectorPool(Config{Shards: 1, QueueDepth: 16})
	if err != nil {
		tb.Fatal(err)
	}
	defer p.Close()
	act, aud := channelSeries(5, 8)
	exports := map[string][]byte{}
	for _, id := range []string{"fuzz", "other"} {
		det, err := tmpl.Clone()
		if err != nil {
			tb.Fatal(err)
		}
		if err := p.Attach(id, det); err != nil {
			tb.Fatal(err)
		}
		for i := range act { // past warm-up: the window travels
			if _, err := p.Observe(id, act[i], aud[i]); err != nil {
				tb.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := p.ExportChannel(id, &buf); err != nil {
			tb.Fatal(err)
		}
		exports[id] = buf.Bytes()
	}
	valid := exports["fuzz"]
	seeds := [][]byte{valid, exports["other"]}
	for _, n := range []int{0, 1, 16, 64, len(valid) / 4, len(valid) / 2, len(valid) - 1} {
		seeds = append(seeds, valid[:n])
	}
	return seeds
}

// FuzzAttachSnapshot feeds arbitrary bytes to DecodeSnapshot and Attach,
// the body of PUT /channels/{id}/snapshot. The result is an error or an
// attach, never a panic; a failed attach leaves no channel behind, and an
// attached one answers an observation with a result or a clean error.
func FuzzAttachSnapshot(f *testing.F) {
	seeds := exportFuzzSeeds(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	p, err := NewDetectorPool(Config{Shards: 1, QueueDepth: 16})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { p.Close() })
	// The seeds are what they claim: the export attaches, the other
	// channel's is refused by its envelope.
	if err := attachSnapshot(p, "fuzz", bytes.NewReader(seeds[0])); err != nil {
		f.Fatal(err)
	}
	if err := p.Detach("fuzz"); err != nil {
		f.Fatal(err)
	}
	if err := attachSnapshot(p, "fuzz", bytes.NewReader(seeds[1])); !errors.Is(err, ErrChannelIDMismatch) {
		f.Fatalf("the other channel's export: %v, want ErrChannelIDMismatch", err)
	}
	act, aud := channelSeries(6, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound adversarial allocations, not coverage
		}
		err := attachSnapshot(p, "fuzz", bytes.NewReader(data))
		_, statErr := p.Stats("fuzz")
		if err != nil {
			if !errors.Is(statErr, ErrUnknownChannel) {
				t.Fatalf("a failed attach (%v) left a channel behind (Stats: %v)", err, statErr)
			}
			return
		}
		if statErr != nil {
			t.Fatalf("attached, yet Stats says %v", statErr)
		}
		if _, err := p.Observe("fuzz", act[0], aud[0]); err != nil {
			t.Logf("attached detector refused an observation: %v", err)
		}
		if err := p.Detach("fuzz"); err != nil {
			t.Fatal(err)
		}
	})
}
