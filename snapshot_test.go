package aovlis

// Round-trip fidelity tests for the crash-safe snapshot subsystem: a
// detector restored from Snapshot must produce bit-identical Result
// sequences to the snapshotted detector continuing uninterrupted — the
// acceptance bar that makes warm restarts indistinguishable from never
// having stopped (ISSUE 4).

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aovlis/internal/snapshot"
)

// resultsBitEqual compares two Results including the float bit pattern of
// the score (plain == would treat -0 and 0, or two NaNs, loosely).
func resultsBitEqual(a, b Result) bool {
	return a.Warmup == b.Warmup && a.Anomaly == b.Anomaly &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score) &&
		a.Exact == b.Exact && a.Path == b.Path && a.Updated == b.Updated
}

// trainSnapshotDetector trains a small detector with the dynamic updater
// enabled aggressively enough that the remaining stream crosses update
// boundaries.
func trainSnapshotDetector(t *testing.T) *Detector {
	t.Helper()
	cfg := testConfig()
	cfg.EnableUpdate = true
	cfg.Update.MaxBuffer = 10
	cfg.Update.TrainEpochs = 2
	cfg.Update.DriftThreshold = 0.99 // trigger retraining readily
	rng := rand.New(rand.NewSource(3))
	actions, audience := makeSeries(rng, 70, nil)
	det, err := Train(actions, audience, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestSnapshotRestoreBitIdentical(t *testing.T) {
	det := trainSnapshotDetector(t)
	rng := rand.New(rand.NewSource(11))
	actions, audience := makeSeries(rng, 60, map[int]bool{25: true, 44: true})

	// Feed the first third, snapshot, then drive the original and the
	// restored detector over the same remainder.
	cut := 20
	for i := 0; i < cut; i++ {
		if _, err := det.Observe(actions[i], audience[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreDetector(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Tau() != det.Tau() {
		t.Fatalf("restored τ = %v, want %v", restored.Tau(), det.Tau())
	}
	if restored.Observed() != det.Observed() || restored.Detected() != det.Detected() {
		t.Fatalf("restored counters %d/%d, want %d/%d",
			restored.Observed(), restored.Detected(), det.Observed(), det.Detected())
	}

	sawUpdate := false
	for i := cut; i < len(actions); i++ {
		want, err := det.Observe(actions[i], audience[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Observe(actions[i], audience[i])
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitEqual(want, got) {
			t.Fatalf("segment %d diverged: original %+v (bits %x), restored %+v (bits %x)",
				i, want, math.Float64bits(want.Score), got, math.Float64bits(got.Score))
		}
		sawUpdate = sawUpdate || want.Updated
	}
	if !sawUpdate {
		t.Fatal("stream never crossed a dynamic-update boundary; the test is not exercising updater state")
	}
	if restored.Observed() != det.Observed() || restored.Detected() != det.Detected() {
		t.Fatalf("post-stream counters diverged: %d/%d vs %d/%d",
			restored.Observed(), restored.Detected(), det.Observed(), det.Detected())
	}
}

func TestSnapshotDuringWarmup(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(5))
	actions, audience := makeSeries(rng, 60, nil)
	det, err := Train(actions[:40], audience[:40], cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot with a partially filled window (2 of q=4 segments).
	for i := 0; i < 2; i++ {
		if _, err := det.Observe(actions[40+i], audience[40+i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreDetector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 42; i < 60; i++ {
		want, err := det.Observe(actions[i], audience[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Observe(actions[i], audience[i])
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitEqual(want, got) {
			t.Fatalf("segment %d diverged after warm-up snapshot", i)
		}
	}
}

func TestSnapshotPreservesSetTau(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(9))
	actions, audience := makeSeries(rng, 50, nil)
	det, err := Train(actions, audience, cfg)
	if err != nil {
		t.Fatal(err)
	}
	det.SetTau(det.Tau() * 1.5)
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreDetector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(restored.Tau()) != math.Float64bits(det.Tau()) {
		t.Fatalf("SetTau not preserved: %v vs %v", restored.Tau(), det.Tau())
	}
}

func TestRestoreDetectorRejectsCorruptStreams(t *testing.T) {
	det := trainSnapshotDetector(t)
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Garbage and truncated streams fail loudly.
	if _, err := RestoreDetector(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := RestoreDetector(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// A Save stream is not a Snapshot stream: the kind check must refuse it
	// rather than resurrecting a detector with silently empty runtime state.
	var saved bytes.Buffer
	if err := det.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreDetector(bytes.NewReader(saved.Bytes())); err == nil {
		t.Fatal("Save stream accepted by RestoreDetector")
	}
	// And a Snapshot stream is not a Save stream.
	if _, err := Load(bytes.NewReader(good)); err == nil {
		t.Fatal("Snapshot stream accepted by Load")
	}
}

func TestSaveLoadThroughFile(t *testing.T) {
	// Loading from an *os.File exercises the shared-buffered-reader path:
	// gob privately wraps non-ByteReader sources and over-reads, which used
	// to starve the chained model decoder. (bytes.Buffer round-trips never
	// caught this.)
	det := trainSnapshotDetector(t)
	path := filepath.Join(t.TempDir(), "det.save")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	loaded, err := Load(rf)
	if err != nil {
		t.Fatalf("loading from file: %v", err)
	}
	if loaded.Tau() != det.Tau() {
		t.Fatalf("file round-trip τ = %v, want %v", loaded.Tau(), det.Tau())
	}
}

func TestSnapshotThroughFileBitIdentical(t *testing.T) {
	// The production path writes snapshots through the atomic file commit;
	// make sure the full file round-trip (not just in-memory buffers) stays
	// bit-identical.
	det := trainSnapshotDetector(t)
	rng := rand.New(rand.NewSource(17))
	actions, audience := makeSeries(rng, 40, nil)
	for i := 0; i < 15; i++ {
		if _, err := det.Observe(actions[i], audience[i]); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "det.snap")
	if _, _, err := snapshot.WriteFileAtomic(path, det.Snapshot); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := RestoreDetector(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 15; i < 40; i++ {
		want, err := det.Observe(actions[i], audience[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Observe(actions[i], audience[i])
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitEqual(want, got) {
			t.Fatalf("segment %d diverged after file round-trip", i)
		}
	}
}

func TestRestoreDetectorRejectsMissingUpdaterState(t *testing.T) {
	// A stream whose config enables updates but that carries no updater
	// state would restore a detector that silently never retrains; the
	// validator must refuse it.
	det := trainSnapshotDetector(t)
	var buf bytes.Buffer
	if err := snapshot.WriteHeader(&buf, snapshot.KindDetector); err != nil {
		t.Fatal(err)
	}
	wire := detectorSnapWire{
		Config:     det.cfg, // EnableUpdate is on
		Tau:        det.tau,
		HasUpdater: false,
	}
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	if err := det.model.SaveRuntime(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreDetector(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("EnableUpdate snapshot without updater state accepted")
	}
}
