package snapshot

// Native Go fuzz targets for the snapshot substrate (ISSUE 5 satellite):
// the envelope and manifest decoders sit in front of every restore path,
// so arbitrary bytes must produce clean errors — never panics, never a
// silently accepted garbage header. Seed corpus lives under testdata/fuzz/
// (plus the f.Add seeds below); CI runs a fixed-budget smoke of each
// target on every push.

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aovlis/internal/snapshot/flat"
	"aovlis/internal/snapshot/manifest"
	"aovlis/internal/wire/wiretest"
)

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false, "regenerate the testdata/fuzz seed corpus files")

// fuzzCorpus maps each target's seeds to their checked-in corpus files,
// seed-NN in the native fuzz corpus encoding, so the corpus and the f.Add
// seeds are one list. Regenerate the files with
//
//	go test ./internal/snapshot -run TestMintFuzzCorpus -update-fuzz-corpus
func fuzzCorpus() map[string][]byte {
	files := make(map[string][]byte)
	for target, seeds := range map[string][][]byte{
		"FuzzReadHeader":    headerFuzzSeeds(),
		"FuzzParseManifest": manifestFuzzSeeds(),
	} {
		for i, seed := range seeds {
			files[filepath.Join("testdata", "fuzz", target, fmt.Sprintf("seed-%02d", i))] =
				[]byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed))
		}
	}
	return files
}

// headerFuzzSeeds / manifestFuzzSeeds are shared between f.Add and the
// checked-in corpus. Each keeps a version-1 input: the codec still reads
// version 1, so the fuzzer should start from its bytes too. The header
// seeds end with a version-4 record's head, which opens with flat.Magic
// and no gob envelope: ReadHeader must refuse it.
func headerFuzzSeeds() [][]byte {
	var record bytes.Buffer
	if err := flat.Write(&record, flat.KindDetector); err != nil {
		panic(err)
	}
	return [][]byte{
		validHeaderBytes(GobVersion, KindDetector),
		validHeaderBytes(GobVersion, KindModel),
		validHeaderBytes(GobVersion, KindModel)[:5], // truncated mid-gob
		{},
		[]byte("not a snapshot at all"),
		validHeaderBytes(1, KindDetector),
		record.Bytes(),
	}
}

func manifestFuzzSeeds() [][]byte {
	valid := func(version int) []byte {
		b, err := json.Marshal(manifest.Manifest{Version: version, UnixNanos: 42, Channels: []manifest.ChannelEntry{
			{ID: "a", File: "a.1.snap", Bytes: 10, SHA256: strings.Repeat("0", 64), Shard: 0},
		}})
		if err != nil {
			panic(err)
		}
		return b
	}
	return [][]byte{
		valid(Version),
		[]byte(`{}`),
		[]byte(`{"version":999}`),
		[]byte(`{"version":1,"channels":[{"id":"","file":""}]}`),
		[]byte(`{"version":1,"channels":[{"id":"x","file":"x.snap","bytes":-5}]}`),
		[]byte(`not json`),
		[]byte(`{"version":1,"channels":[{"id":"x","file":"../../x","bytes":1}]}`),
		valid(1),
		valid(GobVersion),
	}
}

func TestMintFuzzCorpus(t *testing.T) {
	if !*updateFuzzCorpus {
		t.Skip("pass -update-fuzz-corpus to regenerate the seed corpus")
	}
	for path, body := range fuzzCorpus() {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFuzzCorpusIsMinted fails when a checked-in seed file is not what the
// seed functions encode today, or when one is missing or extra: a codec
// change (a version bump) must re-mint the corpus.
func TestFuzzCorpusIsMinted(t *testing.T) {
	want := fuzzCorpus()
	have, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range have {
		if _, ok := want[path]; !ok {
			t.Errorf("%s: no seed encodes it", path)
		}
	}
	for path, body := range want {
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("%s is stale (%v); re-mint with -update-fuzz-corpus:\n got %q\nwant %q", path, err, got, body)
		}
	}
}

// validHeaderBytes encodes a well-formed envelope for kind at version.
func validHeaderBytes(version int, kind string) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(Header{Magic: Magic, Version: version, Kind: kind}); err != nil {
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
		if h.Magic != Magic || h.Kind != KindDetector || h.Version < 1 || h.Version > GobVersion {
			t.Fatalf("ReadHeader accepted invalid header %+v", h)
		}
	})
}

// FuzzParseManifest holds ParseManifest to encoding/json: it fails to
// decode exactly where json.Unmarshal does, at a byte it names, reads the
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
			if err == nil || !strings.HasPrefix(err.Error(), "snapshot: decoding manifest: ") {
				t.Fatalf("%q: err %v, encoding/json %v", data, err, refErr)
			}
			wiretest.RefusedAt(t, data, err, refErr)
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
			if e.ID == "" || e.File == "" || e.Bytes < 0 ||
				e.File == "." || e.File == ".." || strings.ContainsAny(e.File, `/\`) {
				t.Fatalf("ParseManifest accepted invalid entry %+v", e)
			}
		}
	})
}
