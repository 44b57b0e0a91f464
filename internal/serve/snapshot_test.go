package serve

// Kill-and-restart integration tests for the pool checkpoint subsystem
// (ISSUE 4): a pool rebuilt from a snapshot directory must continue every
// channel bit-identically to the original pool never having stopped, and
// snapshotting must compose with live concurrent traffic (-race clean).

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"aovlis"
	"aovlis/internal/mat"
	"aovlis/internal/snapshot/manifest"
)

// channelSeries builds a deterministic per-channel feature stream.
func channelSeries(seed int64, n int) (actions, audience [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for t := 0; t < n; t++ {
		f := make([]float64, 16)
		f[(t/3)%6] = 1
		for i := range f {
			f[i] += 0.02 + 0.01*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, 6)
		for i := range a {
			a[i] = 0.3 + 0.03*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}
	return actions, audience
}

func sameResult(a, b aovlis.Result) bool {
	return a.Warmup == b.Warmup && a.Anomaly == b.Anomaly &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score) &&
		a.Exact == b.Exact && a.Path == b.Path && a.Updated == b.Updated
}

// TestPoolKillAndRestartBitIdentical is the crash/warm-restart drill: run a
// pool over synthetic streams, checkpoint mid-stream, rebuild a fresh pool
// from the snapshot directory (the original keeps running as the reference),
// and require the restored pool's remaining score sequence to be
// bit-identical per channel.
// restoreDir restores the pool dir's manifest indexes, as a booting node
// does.
func restoreDir(dir string, cfg Config) (*DetectorPool, error) {
	m, err := manifest.Read(dir)
	if err != nil {
		return nil, err
	}
	return RestorePool(dir, m, cfg)
}

func TestPoolKillAndRestartBitIdentical(t *testing.T) {
	const (
		channels = 6
		firstLeg = 18
		total    = 48
	)
	tmpl := trainTemplate(t)
	dir := t.TempDir()

	orig := newTestPool(t, Config{Shards: 3, QueueDepth: 32})
	ids := make([]string, channels)
	series := make(map[string][2][][]float64, channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("live-%d", i)
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := orig.Attach(ids[i], det); err != nil {
			t.Fatal(err)
		}
		act, aud := channelSeries(100+int64(i), total)
		series[ids[i]] = [2][][]float64{act, aud}
	}
	for step := 0; step < firstLeg; step++ {
		for _, id := range ids {
			s := series[id]
			if _, err := orig.Observe(id, s[0][step], s[1][step]); err != nil {
				t.Fatal(err)
			}
		}
	}

	rep, err := orig.Snapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Channels != channels || len(rep.Skipped) != 0 {
		t.Fatalf("snapshot report %+v, want %d channels, none skipped", rep, channels)
	}

	// Rebuild from disk with a different shard count: membership and state
	// must come from the manifest, shard placement from the ids.
	restored, err := restoreDir(dir, Config{Shards: 2, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restored.Close() })
	got := restored.Channels()
	if len(got) != channels {
		t.Fatalf("restored pool has channels %v, want %d", got, channels)
	}

	for step := firstLeg; step < total; step++ {
		for _, id := range ids {
			s := series[id]
			want, err := orig.Observe(id, s[0][step], s[1][step])
			if err != nil {
				t.Fatal(err)
			}
			have, err := restored.Observe(id, s[0][step], s[1][step])
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(want, have) {
				t.Fatalf("channel %s step %d diverged: %+v vs %+v", id, step, want, have)
			}
		}
	}

	// Counters resumed too: the restored pool's channels report the full
	// stream's observations, not just the post-restore leg.
	for _, id := range ids {
		ws, err := orig.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := restored.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		if ws.Detected != hs.Detected {
			t.Fatalf("channel %s detected %d vs %d", id, ws.Detected, hs.Detected)
		}
	}
}

// TestSnapshotConcurrentWithTraffic checkpoints while producers hammer
// every channel. Run under -race this is the shard-confinement proof for
// the control-job path; functionally it checks the snapshot commits a
// complete manifest and restores to a working pool.
func TestSnapshotConcurrentWithTraffic(t *testing.T) {
	const channels = 8
	tmpl := trainTemplate(t)
	p := newTestPool(t, Config{Shards: 4, QueueDepth: 64})
	ids := make([]string, channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("busy-%d", i)
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Attach(ids[i], det); err != nil {
			t.Fatal(err)
		}
	}
	act, aud := channelSeries(7, 64)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := p.Observe(id, act[i%64], aud[i%64]); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}

	dir := t.TempDir()
	for round := 0; round < 3; round++ {
		rep, err := p.Snapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Channels != channels {
			t.Fatalf("round %d: %d channels committed, want %d", round, rep.Channels, channels)
		}
	}
	close(stop)
	wg.Wait()

	restored, err := restoreDir(dir, Config{Shards: 4, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for _, id := range ids {
		if _, err := restored.Observe(id, act[0], aud[0]); err != nil {
			t.Fatalf("restored channel %s: %v", id, err)
		}
	}
}

// TestChannelMigration exports a live channel from one pool and attaches it
// into another; the migrated channel must continue bit-identically against
// a non-migrated reference clone of the same channel.
func TestChannelMigration(t *testing.T) {
	tmpl := trainTemplate(t)
	src := newTestPool(t, Config{Shards: 2, QueueDepth: 32})
	dst := newTestPool(t, Config{Shards: 3, QueueDepth: 32})

	det, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Attach("mover", det); err != nil {
		t.Fatal(err)
	}
	act, aud := channelSeries(55, 40)
	for i := 0; i < 20; i++ {
		if _, err := src.Observe("mover", act[i], aud[i]); err != nil {
			t.Fatal(err)
		}
	}

	var wire bytes.Buffer
	if err := src.ExportChannel("mover", &wire); err != nil {
		t.Fatal(err)
	}
	if err := attachSnapshot(dst, "mover", bytes.NewReader(wire.Bytes())); err != nil {
		t.Fatal(err)
	}
	// The exported channel id is also free to live on in the source pool;
	// here we detach it to model a real migration.
	if err := src.Detach("mover"); err != nil {
		t.Fatal(err)
	}
	// Reference: a second restore of the same wire, driven next to the
	// migrated one.
	ref, err := DecodeSnapshot("mover", bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 40; i++ {
		want, err := ref.Observe(act[i], aud[i])
		if err != nil {
			t.Fatal(err)
		}
		have, err := dst.Observe("mover", act[i], aud[i])
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(want, have) {
			t.Fatalf("migrated channel diverged at step %d", i)
		}
	}
}

// attachSnapshot decodes a Snapshot/ExportChannel stream and attaches it
// under id, as a checkpoint restore or a migration's import does.
func attachSnapshot(p *DetectorPool, id string, r io.Reader) error {
	det, err := DecodeSnapshot(id, r)
	if err != nil {
		return err
	}
	return p.Attach(id, det)
}

// TestAttachSnapshotIDMismatch pins the migration-addressing guard: a PUT
// of channel A's export under channel B's id must fail up front with the
// typed mismatch error, not attach A's runtime as B (ISSUE 8 satellite).
func TestAttachSnapshotIDMismatch(t *testing.T) {
	tmpl := trainTemplate(t)
	src := newTestPool(t, Config{Shards: 1, QueueDepth: 16})
	dst := newTestPool(t, Config{Shards: 1, QueueDepth: 16})
	det, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Attach("alice", det); err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := src.ExportChannel("alice", &wire); err != nil {
		t.Fatal(err)
	}
	err = attachSnapshot(dst, "bob", bytes.NewReader(wire.Bytes()))
	if !errors.Is(err, ErrChannelIDMismatch) {
		t.Fatalf("mismatched attach = %v, want ErrChannelIDMismatch", err)
	}
	if _, err := dst.Stats("bob"); !errors.Is(err, ErrUnknownChannel) {
		t.Fatal("mismatched attach must not create the channel")
	}
	// The same stream attaches cleanly under its own id, and a bare
	// detector snapshot (no identity envelope — pool checkpoint files)
	// stays attachable under any id.
	if err := attachSnapshot(dst, "alice", bytes.NewReader(wire.Bytes())); err != nil {
		t.Fatal(err)
	}
	bare, err := DecodeSnapshot("alice", bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatalf("DecodeSnapshot(alice) = %v", err)
	}
	var plain bytes.Buffer
	if err := bare.Snapshot(&plain); err != nil {
		t.Fatal(err)
	}
	if err := attachSnapshot(dst, "carol", bytes.NewReader(plain.Bytes())); err != nil {
		t.Fatalf("bare detector snapshot under a new id: %v", err)
	}
}

func TestSnapshotSkipsNonSnapshottable(t *testing.T) {
	tmpl := trainTemplate(t)
	p := newTestPool(t, DefaultConfig())
	real, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Attach("real", real); err != nil {
		t.Fatal(err)
	}
	if err := p.Attach("fake", &fakeDetector{}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep, err := p.Snapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Channels != 1 || len(rep.Skipped) != 1 || rep.Skipped[0] != "fake" {
		t.Fatalf("report %+v, want 1 committed + fake skipped", rep)
	}
	m, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Channels) != 1 || m.Channels[0].ID != "real" {
		t.Fatalf("manifest channels %+v", m.Channels)
	}
	if err := p.ExportChannel("fake", &bytes.Buffer{}); !errors.Is(err, ErrNotSnapshottable) {
		t.Fatalf("ExportChannel(fake) = %v, want ErrNotSnapshottable", err)
	}
}

func TestRestorePoolVerifiesIntegrity(t *testing.T) {
	tmpl := trainTemplate(t)
	p := newTestPool(t, DefaultConfig())
	det, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Attach("ch", det); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := p.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the committed channel file: restore must refuse.
	m, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, m.Channels[0].File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := restoreDir(dir, DefaultConfig()); err == nil {
		t.Fatal("corrupted channel file restored")
	}
	// A directory without a manifest refuses too.
	if _, err := restoreDir(t.TempDir(), DefaultConfig()); err == nil {
		t.Fatal("empty dir restored")
	}
}

func TestSnapshotStaleFileCleanup(t *testing.T) {
	tmpl := trainTemplate(t)
	p := newTestPool(t, DefaultConfig())
	for _, id := range []string{"keep", "drop"} {
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Attach(id, det); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if _, err := p.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if err := p.Detach("drop"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	// After the second commit only the new generation's "keep" file (plus
	// the manifest) may remain: the detached channel's file and the first
	// generation's files are stale.
	m, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Channels) != 1 || m.Channels[0].ID != "keep" {
		t.Fatalf("manifest channels %+v", m.Channels)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".snap") {
			snaps = append(snaps, e.Name())
		}
	}
	if len(snaps) != 1 || snaps[0] != m.Channels[0].File {
		t.Fatalf("stale snapshot files survived re-snapshot: %v (manifest file %s)", snaps, m.Channels[0].File)
	}
}

// A crash inside a commit leaves its staging file behind. The manifest's
// staging name is fixed, so its next commit overwrites it; a channel
// file's carries the generation, so the post-commit cleanup must remove
// it — as it removes the randomly suffixed staging files older releases
// left.
func TestSnapshotRemovesStagingResidue(t *testing.T) {
	tmpl := trainTemplate(t)
	p := newTestPool(t, DefaultConfig())
	det, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Attach("ch", det); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := p.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	before, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale := channelFile("ch", before.UnixNanos+1)
	for _, name := range []string{stale + ".tmp", manifest.Name + ".tmp", stale + ".tmp-123", manifest.Name + ".tmp-456"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if want := []string{manifest.Name, m.Channels[0].File}; !slices.Equal(names, want) {
		t.Fatalf("directory holds %v after the checkpoint, want %v", names, want)
	}
	restored, err := RestorePool(dir, m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()
}

// TestInterruptedSnapshotKeepsPreviousRestorable covers the crash window of
// a re-snapshot: new-generation files may land in the directory before the
// new manifest commits, and a crash right there must leave the previous
// snapshot fully restorable. Generation-suffixed file names make the new
// files inert until the manifest names them.
func TestInterruptedSnapshotKeepsPreviousRestorable(t *testing.T) {
	tmpl := trainTemplate(t)
	p := newTestPool(t, DefaultConfig())
	det, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Attach("ch", det); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := p.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	before, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the torn second snapshot: a new-generation channel file
	// (here: garbage) written, manifest not yet committed.
	if err := os.WriteFile(filepath.Join(dir, channelFile("ch", before.UnixNanos+1)), []byte("torn new generation"), 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreDir(dir, DefaultConfig())
	if err != nil {
		t.Fatalf("previous snapshot no longer restorable after interrupted re-snapshot: %v", err)
	}
	restored.Close()
}

func TestSnapshotClosedPool(t *testing.T) {
	p, err := NewDetectorPool(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tmpl := trainTemplate(t)
	det, err := tmpl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Attach("ch", det); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Snapshot(t.TempDir()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot on closed pool = %v, want ErrClosed", err)
	}
	if err := p.ExportChannel("ch", &bytes.Buffer{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ExportChannel on closed pool = %v, want ErrClosed", err)
	}
}
