package snapshot

// Native Go fuzz targets for the snapshot substrate (ISSUE 5 satellite):
// the envelope and manifest decoders sit in front of every restore path,
// so arbitrary bytes must produce clean errors — never panics, never a
// silently accepted garbage header. Seed corpus lives under testdata/fuzz/
// (plus the f.Add seeds below); CI runs a fixed-budget smoke of each
// target on every push.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aovlis/internal/snapshot/manifest"
)

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false, "regenerate the testdata/fuzz seed corpus files")

// mintFuzzCorpus writes seeds in the native fuzz corpus encoding so the
// checked-in corpus and the f.Add seeds stay in sync. Regenerate with
//
//	go test ./internal/snapshot -run TestMintFuzzCorpus -update-fuzz-corpus
func mintFuzzCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// headerFuzzSeeds / manifestFuzzSeeds are shared between f.Add and the
// checked-in corpus.
func headerFuzzSeeds() [][]byte {
	return [][]byte{
		validHeaderBytes(KindDetector),
		validHeaderBytes(KindModel),
		validHeaderBytes(KindModel)[:5], // truncated mid-gob
		{},
		[]byte("not a snapshot at all"),
	}
}

func manifestFuzzSeeds() [][]byte {
	valid, err := json.Marshal(manifest.Manifest{Version: Version, UnixNanos: 42, Channels: []manifest.ChannelEntry{
		{ID: "a", File: "a.1.snap", Bytes: 10, SHA256: strings.Repeat("0", 64), Shard: 0},
	}})
	if err != nil {
		panic(err)
	}
	return [][]byte{
		valid,
		[]byte(`{}`),
		[]byte(`{"version":999}`),
		[]byte(`{"version":1,"channels":[{"id":"","file":""}]}`),
		[]byte(`{"version":1,"channels":[{"id":"x","file":"x.snap","bytes":-5}]}`),
		[]byte(`not json`),
	}
}

func TestMintFuzzCorpus(t *testing.T) {
	if !*updateFuzzCorpus {
		t.Skip("pass -update-fuzz-corpus to regenerate the seed corpus")
	}
	mintFuzzCorpus(t, "FuzzReadHeader", headerFuzzSeeds())
	mintFuzzCorpus(t, "FuzzParseManifest", manifestFuzzSeeds())
}

// validHeaderBytes encodes a well-formed envelope for kind.
func validHeaderBytes(kind string) []byte {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, kind); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzReadHeader(f *testing.F) {
	for _, seed := range headerFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			return // bound allocation, not coverage
		}
		h, err := ReadHeader(bytes.NewReader(data), KindDetector)
		if err != nil {
			return
		}
		// An accepted header must actually satisfy the contract.
		if h.Magic != Magic || h.Kind != KindDetector || h.Version < 1 || h.Version > Version {
			t.Fatalf("ReadHeader accepted invalid header %+v", h)
		}
	})
}

// FuzzParseManifest holds ParseManifest to encoding/json: it fails to
// decode exactly where json.Unmarshal does, with its error text, reads the
// same Manifest otherwise, and accepts only valid ones.
func FuzzParseManifest(f *testing.F) {
	for _, seed := range manifestFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			return
		}
		m, err := manifest.Parse(data)
		var ref manifest.Manifest
		if refErr := json.Unmarshal(data, &ref); refErr != nil {
			if err == nil || err.Error() != "snapshot: decoding manifest: "+refErr.Error() {
				t.Fatalf("%q: err %v, encoding/json %v", data, err, refErr)
			}
			return
		}
		if err != nil && strings.HasPrefix(err.Error(), "snapshot: decoding manifest") {
			t.Fatalf("%q: %v, encoding/json reads it", data, err)
		}
		if !reflect.DeepEqual(m, ref) {
			t.Fatalf("%q: read %+v, encoding/json %+v", data, m, ref)
		}
		if err != nil {
			return
		}
		if m.Version < 1 || m.Version > Version {
			t.Fatalf("ParseManifest accepted version %d", m.Version)
		}
		for _, e := range m.Channels {
			if e.ID == "" || e.File == "" || e.Bytes < 0 {
				t.Fatalf("ParseManifest accepted invalid entry %+v", e)
			}
		}
	})
}
