package aovlis

// Snapshot backward-compatibility gate (ISSUE 4): testdata/snapshots/v<N>
// holds one golden detector snapshot per shipped wire-format codec version,
// plus the bit-exact score sequence the snapshotted detector produced on a
// frozen post-snapshot stream. TestSnapshotGoldenCompat restores every
// golden with the CURRENT code and requires the restored detector to
// reproduce the recorded sequence bit for bit (for goldens minted before
// v2, its decisions: see goldenDecisions); TestSnapshotGoldenCurrent
// requires a golden directory for the current snapshot.Version.
//
// Together they make the CI contract from the issue: a PR that changes any
// snapshot wire format in place breaks the v1 golden (decode failure or
// score divergence), and a PR that bumps snapshot.Version without checking
// in the new golden fails the coverage check. To mint a golden after a
// legitimate version bump, run
//
//	go test -run TestSnapshotGoldenCompat -update-golden .
//
// and commit the new testdata/snapshots/v<N> directory (the old ones stay:
// every shipped version must keep loading forever).

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"aovlis/internal/durable"
	"aovlis/internal/mat"
	"aovlis/internal/snapshot"
	"aovlis/internal/snapshot/flat"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata/snapshots/v<current> golden fixtures")

const (
	goldenPreSegments  = 24 // segments fed before the golden snapshot
	goldenPostSegments = 32 // segments scored after it (the recorded sequence)
)

// goldenConfig is the frozen detector configuration behind the golden
// fixtures. DO NOT EDIT: the committed goldens were minted with exactly
// this configuration; changing it (or goldenSeries below) invalidates them
// without any wire-format change having happened. Dimensions are kept tiny
// so the committed snapshot stays a few tens of kilobytes.
func goldenConfig() Config {
	cfg := DefaultConfig(8, 4)
	cfg.HiddenI, cfg.HiddenA = 6, 4
	cfg.SeqLen = 3
	cfg.Epochs = 6
	cfg.Seed = 20260727
	cfg.EnableUpdate = true
	cfg.Update.MaxBuffer = 8
	cfg.Update.TrainEpochs = 2
	cfg.Update.DriftThreshold = 0.99
	cfg.Update.Seed = 20260727
	return cfg
}

// goldenSeries is the frozen stream generator (train series and live
// stream). DO NOT EDIT — see goldenConfig. math/rand's sequence for a
// fixed seed is covered by the Go 1 compatibility promise, so the streams
// are reproducible across Go releases.
func goldenSeries(seed int64, n int, anomalies map[int]bool) (actions, audience [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for t := 0; t < n; t++ {
		f := make([]float64, 8)
		if anomalies[t] {
			f[7-(t%2)] = 1
		} else {
			f[(t/3)%4] = 1
		}
		for i := range f {
			f[i] += 0.05 + 0.02*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, 4)
		base := 0.3
		if anomalies[t] {
			base = 0.9
		}
		for i := range a {
			a[i] = base + 0.05*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}
	return actions, audience
}

// goldenLiveStream returns the frozen live stream: the pre-snapshot leg and
// the recorded post-snapshot leg, with anomalies in both.
func goldenLiveStream() (actions, audience [][]float64) {
	anoms := map[int]bool{14: true, 15: true, 37: true, 38: true, 49: true}
	return goldenSeries(77, goldenPreSegments+goldenPostSegments, anoms)
}

// goldenLine formats one Result as a stable, human-auditable fixture line:
// decision flags, deciding path, and the exact float64 bit pattern of the
// score.
func goldenLine(r Result) string {
	flag := func(b bool) string {
		if b {
			return "1"
		}
		return "0"
	}
	return fmt.Sprintf("warmup=%s anomaly=%s exact=%s updated=%s path=%s score=%016x",
		flag(r.Warmup), flag(r.Anomaly), flag(r.Exact), flag(r.Updated), r.Path, math.Float64bits(r.Score))
}

// mintGolden trains the frozen detector, drives the pre-snapshot leg,
// snapshots into dir and records the post-snapshot score sequence.
func mintGolden(t *testing.T, dir string) {
	t.Helper()
	cfg := goldenConfig()
	trainA, trainU := goldenSeries(1, 64, nil)
	det, err := Train(trainA, trainU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	liveA, liveU := goldenLiveStream()
	for i := 0; i < goldenPreSegments; i++ {
		if _, err := det.Observe(liveA[i], liveU[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := det.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := durable.Commit(filepath.Join(dir, "detector.snap"), snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	var scores bytes.Buffer
	for i := goldenPreSegments; i < len(liveA); i++ {
		res, err := det.Observe(liveA[i], liveU[i])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&scores, goldenLine(res))
	}
	if err := durable.Commit(filepath.Join(dir, "scores.txt"), scores.Bytes()); err != nil {
		t.Fatal(err)
	}
	t.Logf("minted golden in %s (%d score lines)", dir, goldenPostSegments)
}

// goldenDecisions keeps the decision flags of a golden line. Goldens
// minted before v2 scored through the ADOS filter, whose bound-decided
// segments recorded a bound estimate and the bound's path instead of the
// exact REIA; a restore must still reach every one of their decisions.
func goldenDecisions(line string) string {
	var keep []string
	for _, f := range strings.Fields(line) {
		if k, _, _ := strings.Cut(f, "="); k == "warmup" || k == "anomaly" || k == "updated" {
			keep = append(keep, f)
		}
	}
	return strings.Join(keep, " ")
}

// goldenVersion is the codec version a testdata/snapshots/v<N> directory
// holds.
func goldenVersion(dir string) int {
	v, _ := strconv.Atoi(strings.TrimPrefix(filepath.Base(dir), "v"))
	return v
}

// goldenDirs lists testdata/snapshots/v* in version order.
func goldenDirs(t *testing.T) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join("testdata", "snapshots", "v*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(matches, func(i, j int) bool { return goldenVersion(matches[i]) < goldenVersion(matches[j]) })
	return matches
}

// TestSnapshotGoldenCompat restores every shipped golden snapshot with the
// current code and requires bit-identical scoring of the frozen
// post-snapshot stream. With -update-golden it first (re)mints the golden
// for the current codec version.
func TestSnapshotGoldenCompat(t *testing.T) {
	if *updateGolden {
		mintGolden(t, filepath.Join("testdata", "snapshots", fmt.Sprintf("v%d", snapshot.Version)))
	}
	dirs := goldenDirs(t)
	if len(dirs) == 0 {
		t.Fatal("no golden snapshot fixtures under testdata/snapshots")
	}
	liveA, liveU := goldenLiveStream()
	for _, dir := range dirs {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			f, err := os.Open(filepath.Join(dir, "detector.snap"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			det, err := RestoreDetector(f)
			if err != nil {
				t.Fatalf("current code no longer restores this shipped codec version: %v", err)
			}
			sf, err := os.Open(filepath.Join(dir, "scores.txt"))
			if err != nil {
				t.Fatal(err)
			}
			defer sf.Close()
			sc := bufio.NewScanner(sf)
			for i := goldenPreSegments; i < len(liveA); i++ {
				if !sc.Scan() {
					t.Fatalf("scores.txt ended early at segment %d", i)
				}
				res, err := det.Observe(liveA[i], liveU[i])
				if err != nil {
					t.Fatal(err)
				}
				got, want := goldenLine(res), sc.Text()
				if goldenVersion(dir) < 2 {
					got, want = goldenDecisions(got), goldenDecisions(want)
				}
				if got != want {
					t.Fatalf("segment %d diverged from shipped v-fixture:\n  got  %s\n  want %s\n(wire-format change without a version bump? bump internal/snapshot.Version and mint a new golden with -update-golden)", i, got, want)
				}
			}
			if sc.Scan() {
				t.Fatal("scores.txt has extra lines")
			}
		})
	}
}

// TestSnapshotGoldenCurrent fails when internal/snapshot.Version has no
// golden fixture yet — the second half of the compatibility gate: bumping
// the codec version requires shipping a golden for it in the same PR.
func TestSnapshotGoldenCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "snapshots", fmt.Sprintf("v%d", snapshot.Version))
	for _, name := range []string{"detector.snap", "scores.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("snapshot codec version %d has no committed golden (%v); run 'go test -run TestSnapshotGoldenCompat -update-golden .' and commit %s", snapshot.Version, err, dir)
		}
	}
}

// testdata/fastmath holds a detector written with the retired
// Config.FastMath field set, by the last code that had the field:
// goldenConfig with FastMath on, trained on goldenSeries(1, 64, nil),
// saved (detector.bin), then fed the first goldenPreSegments of
// goldenLiveStream and snapshotted (detector.snap). Gob skips a field the
// type no longer has, so both files must still load — and, with one gate
// kernel left, score bit for bit as the exact detector of goldenConfig
// does, write the bytes it writes, and carry nothing of the field.
func TestRetiredFastMathFilesScoreExact(t *testing.T) {
	trainA, trainU := goldenSeries(1, 64, nil)
	exact, err := Train(trainA, trainU, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	open := func(name string) *os.File {
		f, err := os.Open(filepath.Join("testdata", "fastmath", name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	loaded, err := Load(open("detector.bin"))
	if err != nil {
		t.Fatalf("a detector saved with FastMath no longer loads: %v", err)
	}
	if !bytes.Equal(saveBytes(t, loaded), saveBytes(t, exact)) {
		t.Fatal("the loaded detector saves other bytes than the exact detector of its configuration")
	}
	liveA, liveU := goldenLiveStream()
	reference, err := exact.Clone()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, observeSerially(t, reference, liveA, liveU), observeSerially(t, loaded, liveA, liveU))

	restored, err := RestoreDetector(open("detector.snap"))
	if err != nil {
		t.Fatalf("a snapshot taken with FastMath no longer restores: %v", err)
	}
	pre, post := goldenPreSegments, len(liveA)
	observeSerially(t, exact, liveA[:pre], liveU[:pre])
	if !bytes.Equal(snapshotBytes(t, restored), snapshotBytes(t, exact)) {
		t.Fatal("the restored snapshot writes other bytes than the exact detector at the same point")
	}
	requireSameResults(t, observeSerially(t, exact, liveA[pre:post], liveU[pre:post]),
		observeSerially(t, restored, liveA[pre:post], liveU[pre:post]))
}

// TestScoringModeIgnoresFirstArgument pins the SetScoringMode shim: its
// first argument selected the retired fast-math kernel, and now both of
// its values give the same detector, tiered or not — the same results on
// the golden stream, bit for bit, and the same snapshot bytes after it.
func TestScoringModeIgnoresFirstArgument(t *testing.T) {
	trainA, trainU := goldenSeries(1, 64, nil)
	tmpl, err := Train(trainA, trainU, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	liveA, liveU := goldenLiveStream()
	for _, tiered := range []bool{false, true} {
		var results [2][]Result
		var snaps [2][]byte
		for i, first := range []bool{false, true} {
			d, err := tmpl.Clone()
			if err != nil {
				t.Fatal(err)
			}
			if err := d.SetScoringMode(first, tiered); err != nil {
				t.Fatal(err)
			}
			results[i] = observeSerially(t, d, liveA, liveU)
			snaps[i] = snapshotBytes(t, d)
		}
		requireSameResults(t, results[0], results[1])
		if !bytes.Equal(snaps[0], snaps[1]) {
			t.Fatalf("tiered=%v: SetScoringMode(true, …) snapshots other bytes than SetScoringMode(false, …)", tiered)
		}
	}
}

// TestGoldensResnapshotAsFlatRecords: each golden of codec versions 1 to 3,
// restored and snapshotted again, is a flat record that restores to a
// detector scoring the frozen post-snapshot stream bit for bit as the
// golden's own restore does, and that snapshots to the same bytes again.
func TestGoldensResnapshotAsFlatRecords(t *testing.T) {
	liveA, liveU := goldenLiveStream()
	post := len(liveA)
	for _, dir := range goldenDirs(t) {
		if goldenVersion(dir) > snapshot.GobVersion {
			continue
		}
		t.Run(filepath.Base(dir), func(t *testing.T) {
			b, err := os.ReadFile(filepath.Join(dir, "detector.snap"))
			if err != nil {
				t.Fatal(err)
			}
			restore := func(b []byte) *Detector {
				d, err := RestoreDetector(bytes.NewReader(b))
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			record := snapshotBytes(t, restore(b))
			if !bytes.HasPrefix(record, []byte(flat.Magic)) {
				t.Fatal("a restored golden snapshots in another format than the flat record")
			}
			again := restore(record)
			if !bytes.Equal(snapshotBytes(t, again), record) {
				t.Fatal("Snapshot → RestoreDetector → Snapshot changed the record's bytes")
			}
			requireSameResults(t, observeSerially(t, restore(b), liveA[goldenPreSegments:post], liveU[goldenPreSegments:post]),
				observeSerially(t, again, liveA[goldenPreSegments:post], liveU[goldenPreSegments:post]))
		})
	}
}

// TestRecordsRoundTripByteIdentical: Save → Load → Save and Snapshot →
// RestoreDetector → Snapshot write the same bytes, for a tiered updating
// detector mid-stream, and a channel's record names its channel, however
// long its id.
func TestRecordsRoundTripByteIdentical(t *testing.T) {
	det := tinyDetector(t, true)
	saved := saveBytes(t, det)
	loaded, err := Load(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, loaded), saved) {
		t.Fatal("Save → Load → Save changed the record's bytes")
	}
	for _, id := range []string{"ch-7", strings.Repeat("long-", 1000)} { // longer than a reader's buffer
		var named bytes.Buffer
		if err := det.SnapshotChannel(&named, id); err != nil {
			t.Fatal(err)
		}
		restored, channel, err := RestoreChannel(bytes.NewReader(named.Bytes()))
		if err != nil || channel != id {
			t.Fatalf("RestoreChannel = channel of %d bytes, %v; want %d", len(channel), err, len(id))
		}
		if snap := snapshotBytes(t, det); !bytes.Equal(snapshotBytes(t, restored), snap) {
			t.Fatal("Snapshot → RestoreDetector → Snapshot changed the record's bytes")
		}
	}
}
