package aovlis

// Native fuzz target for the detector restore path (ISSUE 5 satellite):
// RestoreDetector consumes snapshot streams that may come over the network
// (PUT /channels/{id}/snapshot) or from damaged disks, so every corrupt
// stream must fail with a clean error — no panics, no detector built from
// torn state. Seeds cover a valid full-runtime snapshot and systematic
// corruptions of it; the fuzzer mutates from there. The seed corpus is
// checked in under testdata/fuzz/ (regenerate with -update-fuzz-corpus)
// and CI runs a fixed-budget smoke.

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"aovlis/internal/mat"
	"aovlis/internal/snapshot"
)

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false, "regenerate the testdata/fuzz seed corpus files")

// fuzzSnapshotBytes builds a small trained detector mid-stream and returns
// its full-runtime snapshot.
func fuzzSnapshotBytes(tb testing.TB) []byte {
	tb.Helper()
	cfg := testConfig()
	cfg.Epochs = 1
	rng := rand.New(rand.NewSource(97))
	actions, audience := makeSeries(rng, 60, nil)
	det, err := Train(actions, audience, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	// Advance past warm-up so the snapshot carries a full window.
	for i := 0; i < 8; i++ {
		if _, err := det.Observe(actions[i], audience[i]); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// tinySnapshotBytes snapshots the smallest detector worth mutating — 4/2
// feature dims, hidden sizes 2/2, a window of 2, trained one epoch on 24
// segments, 20 segments into its stream — in a few KB, most of it gob's
// type descriptors. With update set it snapshots an updating detector
// whose log holds buffered rows.
func tinySnapshotBytes(tb testing.TB, update bool) []byte {
	tb.Helper()
	cfg := DefaultConfig(4, 2)
	cfg.HiddenI, cfg.HiddenA, cfg.SeqLen, cfg.Epochs = 2, 2, 2, 1
	cfg.EnableUpdate = update
	cfg.Update.MaxBuffer = 4
	rng := rand.New(rand.NewSource(5))
	var actions, audience [][]float64
	for i := 0; i < 24; i++ {
		f := []float64{0.1 + rng.Float64(), 0.1, 0.1, 0.1}
		f[i%4]++
		mat.Normalize(f)
		actions = append(actions, f)
		audience = append(audience, []float64{0.3 + 0.03*rng.NormFloat64(), 0.3})
	}
	det, err := Train(actions, audience, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := det.Observe(actions[i], audience[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if update && len(det.upd.State().Offsets) == 0 {
		tb.Fatal("the tiny updating detector buffered nothing")
	}
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// restoreFuzzSeeds builds the seeds shared by f.Add and the checked-in
// corpus: a valid stream, systematic corruptions of it, the golden
// snapshot of the current codec version (an updating detector with a
// buffer to restore), and tiny-model snapshots and corruptions of them,
// small enough that the fuzzer's mutations reach every section.
func restoreFuzzSeeds(tb testing.TB) [][]byte {
	valid := fuzzSnapshotBytes(tb)
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)/3] ^= 0x40 // bit flip mid-stream
	golden, err := os.ReadFile(filepath.Join("testdata", "snapshots", fmt.Sprintf("v%d", snapshot.Version), "detector.snap"))
	if err != nil {
		tb.Fatal(err)
	}
	tiny, tinyUpdating := tinySnapshotBytes(tb, false), tinySnapshotBytes(tb, true)
	tinyCorrupt := append([]byte{}, tinyUpdating...)
	tinyCorrupt[len(tinyCorrupt)/2] ^= 0x40
	return [][]byte{
		valid,
		valid[:len(valid)/2], // truncated model payload
		valid[:8],            // truncated envelope
		corrupt,
		{},
		[]byte("AOVLIS-SNAP but not really"),
		golden,
		tiny,
		tinyUpdating,
		tinyUpdating[:len(tinyUpdating)/2],
		tinyCorrupt,
	}
}

// TestMintRestoreFuzzCorpus writes the seed corpus in the native fuzz
// encoding. Regenerate with
//
//	go test -run TestMintRestoreFuzzCorpus -update-fuzz-corpus .
func TestMintRestoreFuzzCorpus(t *testing.T) {
	if !*updateFuzzCorpus {
		t.Skip("pass -update-fuzz-corpus to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzRestoreDetector")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range restoreFuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func FuzzRestoreDetector(f *testing.F) {
	for _, seed := range restoreFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound adversarial allocations, not coverage
		}
		det, err := RestoreDetector(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A restore that claims success must hand back a usable detector:
		// one observation with matching dims either scores or fails with a
		// clean error — it must not panic on torn internal state.
		action := make([]float64, det.cfg.ActionDim)
		audienceF := make([]float64, det.cfg.AudienceDim)
		if _, err := det.Observe(action, audienceF); err != nil {
			t.Logf("restored detector rejected observation: %v", err)
		}
	})
}
