package aovlis

// Native fuzz targets for the detector restore and load paths:
// RestoreDetector consumes snapshot streams that may come over the network
// (PUT /channels/{id}/snapshot) or from damaged disks, and Load model
// files, so every corrupt stream must fail with a clean error — no panics,
// no detector built from torn state, and no allocation a record's bytes do
// not back. Seeds cover valid records of every codec version and
// systematic corruptions of them; the fuzzer mutates from there. The seed
// corpus is checked in under testdata/fuzz/ (regenerate with
// -update-fuzz-corpus) and CI runs a fixed-budget smoke of each.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"aovlis/internal/mat"
	"aovlis/internal/snapshot"
	"aovlis/internal/snapshot/flat"
)

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false, "regenerate the testdata/fuzz seed corpus files")

// tinyDetector trains the smallest detector worth mutating — 4/2 feature
// dims, hidden sizes 2/2, a window of 2, trained one epoch on 24 segments —
// and feeds it 20 segments of its stream. With update set it updates and
// is tiered, and its log holds buffered rows.
func tinyDetector(tb testing.TB, update bool) *Detector {
	tb.Helper()
	cfg := DefaultConfig(4, 2)
	cfg.HiddenI, cfg.HiddenA, cfg.SeqLen, cfg.Epochs = 2, 2, 2, 1
	cfg.EnableUpdate, cfg.Tiered = update, update
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
	if update && len(updaterState(tb, det.upd).Offsets) == 0 {
		tb.Fatal("the tiny updating detector buffered nothing")
	}
	return det
}

// flatFuzzSeeds are a target's seeds in the version-4 record: the records
// of the tiny detectors that write writes, cut short at the header, in the
// section table, mid-record and by a byte, and with a bit flipped in the
// weights.
func flatFuzzSeeds(tb testing.TB, write func(*Detector, io.Writer) error) [][]byte {
	var records [2][]byte
	for i, update := range []bool{false, true} {
		var buf bytes.Buffer
		if err := write(tinyDetector(tb, update), &buf); err != nil {
			tb.Fatal(err)
		}
		records[i] = buf.Bytes()
	}
	full := records[1]
	flip := bytes.Clone(full)
	flip[len(flip)/2] ^= 0x40
	return [][]byte{records[0], full, full[:20], full[:40], full[:len(full)/2], full[:len(full)-1], flip}
}

// fileFuzzSeeds reads the committed file name in each of dirs under
// testdata.
func fileFuzzSeeds(tb testing.TB, dirs []string, name string) [][]byte {
	var seeds [][]byte
	for _, dir := range dirs {
		b, err := os.ReadFile(filepath.Join("testdata", dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// restoreFuzzSeeds builds the seeds of FuzzRestoreDetector: the tiny
// detectors' snapshots and corruptions of them, the golden snapshot of
// every codec version (an updating detector with a buffer to restore), the
// version-3 snapshot with the retired FastMath field, and non-records.
func restoreFuzzSeeds(tb testing.TB) [][]byte {
	seeds := flatFuzzSeeds(tb, (*Detector).Snapshot)
	seeds = append(seeds, fileFuzzSeeds(tb, []string{"snapshots/v1", "snapshots/v2", "snapshots/v3",
		fmt.Sprintf("snapshots/v%d", snapshot.Version), "fastmath"}, "detector.snap")...)
	return append(seeds, []byte{}, []byte("AOVLIS-SNAP but not really"), []byte(flat.Magic+"but not really"))
}

// TestMintRestoreFuzzCorpus writes the version-4 seeds in the native fuzz
// encoding, as v4-NN beside the seed-NN files the version 3 writer minted,
// which stay the corpus's gob seeds. Regenerate with
//
//	go test -run TestMintRestoreFuzzCorpus -update-fuzz-corpus .
func TestMintRestoreFuzzCorpus(t *testing.T) {
	if !*updateFuzzCorpus {
		t.Skip("pass -update-fuzz-corpus to regenerate the seed corpus")
	}
	for target, seeds := range map[string][][]byte{
		"FuzzRestoreDetector": flatFuzzSeeds(t, (*Detector).Snapshot),
		"FuzzLoad":            flatFuzzSeeds(t, (*Detector).Save),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("v%d-%02d", snapshot.Version, i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
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

// FuzzLoad feeds arbitrary bytes to Load. A load that succeeds gives a
// detector that scores: q+1 observations of its dims end in a verdict or a
// clean error. A load of a version-4 record that fails allocates no more
// than the record's bytes and a fixed allowance, whatever sizes and shapes
// it declares.
func FuzzLoad(f *testing.F) {
	for _, seed := range append(flatFuzzSeeds(f, (*Detector).Save), fileFuzzSeeds(f, []string{"fastmath"}, "detector.bin")...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound adversarial allocations, not coverage
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		det, err := Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err != nil {
			if grew := after.TotalAlloc - before.TotalAlloc; bytes.HasPrefix(data, []byte(flat.Magic)) && grew > uint64(len(data))+64<<10 {
				t.Fatalf("a failed load of %d bytes allocated %d B: %v", len(data), grew, err)
			}
			return
		}
		act, aud := make([]float64, det.cfg.ActionDim), make([]float64, det.cfg.AudienceDim)
		var res Result
		for i := 0; i <= det.cfg.SeqLen && err == nil; i++ {
			res, err = det.Observe(act, aud)
		}
		if err == nil && res.Warmup {
			t.Fatalf("a loaded detector is still warming up after q+1 = %d observations", det.cfg.SeqLen+1)
		}
	})
}
