package snapshot

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aovlis/internal/snapshot/manifest"
)

func TestHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, KindDetector); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(&buf, KindDetector)
	if err != nil {
		t.Fatal(err)
	}
	if h.Magic != Magic || h.Version != Version || h.Kind != KindDetector {
		t.Fatalf("header = %+v", h)
	}
}

func TestHeaderRejections(t *testing.T) {
	write := func(h Header) *bytes.Buffer {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(h); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	cases := []struct {
		name string
		h    Header
		want string
	}{
		{"bad magic", Header{Magic: "nope", Version: 1, Kind: KindModel}, "bad magic"},
		{"future version", Header{Magic: Magic, Version: Version + 1, Kind: KindModel}, "supported range"},
		{"zero version", Header{Magic: Magic, Version: 0, Kind: KindModel}, "supported range"},
		{"wrong kind", Header{Magic: Magic, Version: 1, Kind: KindDetector}, "want"},
	}
	for _, tc := range cases {
		if _, err := ReadHeader(write(tc.h), KindModel); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if _, err := ReadHeader(bytes.NewBufferString("not a gob stream"), KindModel); err == nil {
		t.Fatal("garbage stream accepted")
	}
}

func TestReaderSharedAcrossChainedDecoders(t *testing.T) {
	// Two gob encoders chained on one stream, decoded through a reader that
	// does NOT implement io.ByteReader: without the shared Reader wrap the
	// second decoder loses data to the first decoder's internal bufio.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode("first"); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&buf).Encode("second"); err != nil {
		t.Fatal(err)
	}
	r := Reader(onlyReader{&buf})
	var a, b string
	if err := gob.NewDecoder(r).Decode(&a); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(r).Decode(&b); err != nil {
		t.Fatalf("second chained decoder: %v", err)
	}
	if a != "first" || b != "second" {
		t.Fatalf("decoded %q, %q", a, b)
	}
	// A ByteReader input passes through unwrapped.
	bb := bytes.NewBufferString("x")
	if got := Reader(bb); got != io.Reader(bb) {
		t.Fatal("ByteReader input was re-wrapped")
	}
}

// onlyReader hides every method of the wrapped reader except Read.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ch.snap")
	payload := []byte("hello snapshot")
	n, sum, err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("size %d, want %d", n, len(payload))
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("committed %q, %v", got, err)
	}
	if err := manifest.Verify(dir, manifest.ChannelEntry{ID: "ch", File: "ch.snap", Bytes: n, SHA256: sum}); err != nil {
		t.Fatalf("verify fresh entry: %v", err)
	}
	// A failing fill must leave the previous committed file untouched and
	// no temporaries behind.
	boom := errors.New("boom")
	if _, _, err := WriteFileAtomic(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("fill error not surfaced: %v", err)
	}
	got, err = os.ReadFile(path)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("previous commit damaged: %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "ch.snap" {
		t.Fatalf("directory not clean after failed write: %v", ents)
	}
}

func TestVerifyEntryDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ch.snap")
	n, sum, err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	entry := manifest.ChannelEntry{ID: "ch", File: "ch.snap", Bytes: n, SHA256: sum}
	if err := os.WriteFile(path, []byte("paYload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := manifest.Verify(dir, entry); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption not detected: %v", err)
	}
	if err := os.WriteFile(path, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := manifest.Verify(dir, entry); err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("truncation not detected: %v", err)
	}
	if err := manifest.Verify(dir, manifest.ChannelEntry{ID: "gone", File: "gone.snap"}); err == nil {
		t.Fatal("missing file not detected")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := manifest.Manifest{
		Version:   Version,
		UnixNanos: 12345,
		Channels: []manifest.ChannelEntry{
			{ID: "a", File: "a.snap", Bytes: 3, SHA256: "00", Shard: 1},
			{ID: "b", File: "b.snap", Bytes: 4, SHA256: "11", Shard: 0},
		},
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != m.Version || got.UnixNanos != m.UnixNanos || len(got.Channels) != 2 {
		t.Fatalf("manifest = %+v", got)
	}
	if got.Channels[0] != m.Channels[0] || got.Channels[1] != m.Channels[1] {
		t.Fatalf("channels = %+v", got.Channels)
	}
	// Future-versioned manifests are refused, as is a missing manifest.
	bad := m
	bad.Version = Version + 1
	if err := WriteManifest(dir, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := manifest.Read(dir); err == nil {
		t.Fatal("future manifest version accepted")
	}
	if _, err := manifest.Read(t.TempDir()); err == nil {
		t.Fatal("missing manifest accepted")
	}
}

func TestWriteFileAtomicConcurrentDistinctFiles(t *testing.T) {
	// The pool writes per-channel files concurrently into one directory;
	// distinct target paths must not interfere.
	dir := t.TempDir()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			_, _, err := WriteFileAtomic(filepath.Join(dir, fmt.Sprintf("c%d.snap", i)), func(w io.Writer) error {
				_, err := fmt.Fprintf(w, "payload-%d", i)
				return err
			})
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("c%d.snap", i)))
		if err != nil || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("file %d: %q, %v", i, got, err)
		}
	}
}
