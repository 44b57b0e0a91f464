package aovlis

// Round-trip fidelity tests for the crash-safe snapshot subsystem: a
// detector restored from Snapshot must produce bit-identical Result
// sequences to the snapshotted detector continuing uninterrupted — the
// acceptance bar that makes warm restarts indistinguishable from never
// having stopped (ISSUE 4).

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aovlis/internal/durable"
	"aovlis/internal/snapshot/flat"
	"aovlis/internal/update"
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

// TestStateBeforeDriftCheckSurvivesRecycling takes a Snapshot and the
// updater's state one segment before a drift check that retrains. The
// original then runs on through the check, which frees the rows its
// updater's buffered samples own, and the samples buffered after it are
// copied into those rows. A detector restored from the snapshot, and one
// given the exported updater state only after all that, must still retrain
// on the buffered samples as they were: the same verdicts and the same
// merged parameters as the original, bit for bit.
func TestStateBeforeDriftCheckSurvivesRecycling(t *testing.T) {
	det := trainSnapshotDetector(t)
	rng := rand.New(rand.NewSource(11))
	actions, audience := makeSeries(rng, 60, map[int]bool{25: true, 44: true})

	probe, err := det.Clone()
	if err != nil {
		t.Fatal(err)
	}
	check := -1
	for i := range actions {
		r, err := probe.Observe(actions[i], audience[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Updated {
			check = i
			break
		}
	}
	if check < 0 {
		t.Fatal("stream never retrained")
	}

	for i := 0; i < check; i++ {
		if _, err := det.Observe(actions[i], audience[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap := snapshotBytes(t, det)
	st := updaterState(t, det.upd)
	if len(st.Offsets) != det.cfg.Update.MaxBuffer-1 {
		t.Fatalf("%d samples buffered before the drift check, want %d", len(st.Offsets), det.cfg.Update.MaxBuffer-1)
	}
	want := observeSerially(t, det, actions[check:], audience[check:])
	if !want[0].Updated {
		t.Fatal("the drift check did not retrain")
	}

	restored, err := RestoreDetector(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := RestoreDetector(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.upd.SetState(st); err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Detector{"snapshot": restored, "updater state": twin} {
		requireSameResults(t, want, observeSerially(t, d, actions[check:], audience[check:]))
		if !bytes.Equal(saveBytes(t, d), saveBytes(t, det)) {
			t.Fatalf("restored from the %s, the detector's weights differ from the original's", name)
		}
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
	var snap bytes.Buffer
	if err := det.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "det.snap")
	if err := durable.Commit(path, snap.Bytes()); err != nil {
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

// updaterState returns u's state as a record's updater section holds it.
func updaterState(tb testing.TB, u *update.Updater) update.State {
	tb.Helper()
	var b bytes.Buffer
	if err := flat.Write(&b, flat.KindDetector, flat.Section{Tag: flat.TagUpdater, Put: u.WriteFlat}); err != nil {
		tb.Fatal(err)
	}
	d, _, err := flat.Open(&b, flat.KindDetector)
	if err != nil || !d.Section(flat.TagUpdater) {
		tb.Fatalf("reading the updater section back: %v", err)
	}
	cfg := u.Model().Config()
	st := update.ReadState(d, cfg.ActionDim+cfg.AudienceDim)
	if err := d.Close(); err != nil {
		tb.Fatal(err)
	}
	return st
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	k := min(len(p), f.n)
	if f.n -= k; k < len(p) {
		return k, errors.New("no space left on device")
	}
	return k, nil
}

// TestWriteErrorsReachTheCaller: Save and Snapshot of a benchmark-shape
// detector into a writer that fails part way (a full disk, a closed
// connection) return the error rather than retrying the write, and a
// failed Snapshot leaves the detector observable.
func TestWriteErrorsReachTheCaller(t *testing.T) {
	det, acts, auds := benchShapeTemplate(t)
	for _, at := range []int{0, 100, 16 << 10, 100 << 10} {
		done := make(chan [2]error, 1)
		go func() { done <- [2]error{det.Save(&failingWriter{at}), det.Snapshot(&failingWriter{at})} }()
		select {
		case errs := <-done:
			if errs[0] == nil || errs[1] == nil {
				t.Fatalf("writes failing after %d bytes: Save = %v, Snapshot = %v", at, errs[0], errs[1])
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("writes failing after %d bytes: Save or Snapshot has not returned", at)
		}
		if _, err := det.Observe(acts[0], auds[0]); err != nil {
			t.Fatalf("Observe after a failed Snapshot: %v", err)
		}
	}
}

func TestRestoreDetectorRejectsMissingUpdaterState(t *testing.T) {
	// A stream whose config enables updates but that carries no updater
	// state would restore a detector that silently never retrains; the
	// validator must refuse it.
	det := trainSnapshotDetector(t) // EnableUpdate is on
	var sections []flat.Section
	for _, s := range det.sections("", true) {
		if s.Tag != flat.TagUpdater {
			sections = append(sections, s)
		}
	}
	var buf bytes.Buffer
	if err := flat.Write(&buf, flat.KindDetector, sections...); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreDetector(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("EnableUpdate snapshot without updater state accepted")
	}
}
