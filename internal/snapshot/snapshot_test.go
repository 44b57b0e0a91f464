package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aovlis/internal/snapshot/flat"
	"aovlis/internal/snapshot/manifest"
)

func TestHeaderRoundTrip(t *testing.T) {
	buf := bytes.NewBuffer(validHeaderBytes(GobVersion, KindDetector))
	h, err := ReadHeader(buf, KindDetector)
	if err != nil {
		t.Fatal(err)
	}
	if h.Magic != Magic || h.Version != GobVersion || h.Kind != KindDetector {
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
		{"future version", Header{Magic: Magic, Version: GobVersion + 1, Kind: KindModel}, "supported range"},
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
	// does NOT implement io.ByteReader: without the shared wrap (the reader
	// flat.Open hands every reader of a versions 1–3 stream) the second
	// decoder loses data to the first decoder's internal bufio.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode("first"); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&buf).Encode("second"); err != nil {
		t.Fatal(err)
	}
	_, r, err := flat.Open(onlyReader{&buf}, flat.KindDetector)
	if err != nil || r == nil {
		t.Fatalf("a gob stream opened as %v, %v", r, err)
	}
	var a, b string
	if err := gob.NewDecoder(r).Decode(&a); err != nil {
		t.Fatal(err)
	}
	// The gob readers open the rest of the stream again (a detector
	// snapshot's model): a bufio.Reader on a gob stream passes through.
	if _, again, err := flat.Open(r, flat.KindModel); again != r || err != nil {
		t.Fatalf("the gob stream's reader was re-wrapped: %v", err)
	}
	if err := gob.NewDecoder(r).Decode(&b); err != nil {
		t.Fatalf("second chained decoder: %v", err)
	}
	if a != "first" || b != "second" {
		t.Fatalf("decoded %q, %q", a, b)
	}
}

// onlyReader hides every method of the wrapped reader except Read.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func TestVerifyEntryDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ch.snap")
	payload := []byte("payload")
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	entry := manifest.ChannelEntry{ID: "ch", File: "ch.snap", Bytes: int64(len(payload)), SHA256: hex.EncodeToString(sum[:])}
	if got, err := manifest.ReadEntry(dir, entry); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("fresh entry read %q, %v", got, err)
	}
	if err := os.WriteFile(path, []byte("paYload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := manifest.ReadEntry(dir, entry); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corruption not detected: %v", err)
	}
	if err := os.WriteFile(path, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := manifest.ReadEntry(dir, entry); err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("truncation not detected: %v", err)
	}
	if _, err := manifest.ReadEntry(dir, manifest.ChannelEntry{ID: "gone", File: "gone.snap"}); err == nil {
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
	if err := manifest.Write(dir, m); err != nil {
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
	if err := manifest.Write(dir, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := manifest.Read(dir); err == nil {
		t.Fatal("future manifest version accepted")
	}
	if _, err := manifest.Read(t.TempDir()); err == nil {
		t.Fatal("missing manifest accepted")
	}
}
