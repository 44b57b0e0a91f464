package node

// The node as a value a test can open, stop and open again: Open's three
// restore branches, the refusals to boot, the boot order (sinks before
// replay), Close's final checkpoint, repeated Open/Close on one set of
// directories, and the channel lifecycle — detach reaching the hub (S1 of
// ISSUE 23) and the journal (S2). The HTTP surface's route-by-route
// coverage lives in cmd/aovlisd, which drives this package from outside.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/core"
	"aovlis/internal/ledger"
	"aovlis/internal/mat"
	"aovlis/internal/serve"
	"aovlis/internal/snapshot/manifest"
	"aovlis/internal/stream/liveplane"
	"aovlis/internal/wal"
	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

const (
	testActionDim   = 16
	testAudienceDim = 6
)

// testSeries builds a deterministic normal feature stream.
func testSeries(seed int64, n int) (actions, audience [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		f := make([]float64, testActionDim)
		f[(i/4)%6] = 1
		for j := range f {
			f[j] += 0.02 + 0.01*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, testAudienceDim)
		for j := range a {
			a[j] = 0.3 + 0.03*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}
	return actions, audience
}

// trainSmall trains the suite's small detector shape from one seed.
func trainSmall(t *testing.T, seed int64, epochs int) *aovlis.Detector {
	t.Helper()
	cfg := aovlis.DefaultConfig(testActionDim, testAudienceDim)
	cfg.HiddenI, cfg.HiddenA = 12, 8
	cfg.SeqLen = 4
	cfg.Epochs = epochs
	cfg.Seed = seed
	actions, audience := testSeries(seed, 90)
	det, err := aovlis.Train(actions, audience, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// benchShape trains a detector at the benchmark's model shape (48 action
// classes, 19 audience dimensions, q = 9) for one epoch from the given
// model seed, with or without the dynamic update, and returns it with its
// training series.
func benchShape(t *testing.T, seed int64, update bool) (det *aovlis.Detector, acts, auds [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		f, a := make([]float64, 48), make([]float64, 19)
		f[(i/3)%8] = 1
		for j := range f {
			f[j] += 0.02 + 0.01*rng.Float64()
		}
		mat.Normalize(f)
		for j := range a {
			a[j] = 0.3 + 0.03*rng.NormFloat64()
		}
		acts, auds = append(acts, f), append(auds, a)
	}
	cfg := aovlis.DefaultConfig(48, 19)
	cfg.Epochs, cfg.Seed, cfg.EnableUpdate = 1, seed, update
	det, err := aovlis.Train(acts, auds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return det, acts, auds
}

var testTemplate struct {
	once sync.Once
	det  *aovlis.Detector
}

// template trains one detector for the whole suite.
func template(t *testing.T) *aovlis.Detector {
	t.Helper()
	testTemplate.once.Do(func() { testTemplate.det = trainSmall(t, 7, 3) })
	if testTemplate.det == nil {
		t.Fatal("template training failed in an earlier test")
	}
	return testTemplate.det
}

// logBook collects a node's log lines.
type logBook struct {
	mu    sync.Mutex
	lines []string
}

func (b *logBook) logf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

func (b *logBook) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Join(b.lines, "\n")
}

// dirs is one node's state directories; the zero value has none.
type dirs struct{ snap, wal, ledger string }

func allDirs(t *testing.T) dirs {
	base := t.TempDir()
	return dirs{filepath.Join(base, "snap"), filepath.Join(base, "wal"), filepath.Join(base, "ledger")}
}

func testConfig(d dirs) Config {
	return Config{MaxChannels: 8, SnapshotDir: d.snap, WALDir: d.wal, LedgerDir: d.ledger, LedgerBatch: 4,
		Pool: serve.Config{Shards: 2, QueueDepth: 64, Batch: 4}}
}

// open opens a node on cfg, logging into the returned book.
func open(t *testing.T, cfg Config) (*Node, *logBook) {
	t.Helper()
	book := &logBook{}
	cfg.Logf = book.logf
	n, err := Open(template(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, book
}

// shut stops a node that has no listener in front of it.
func shut(t *testing.T, n *Node) {
	t.Helper()
	n.Drain()
	if err := n.Close(); err != nil {
		t.Fatalf("closing node: %v", err)
	}
}

// observe scores acts[from:to] on channel id in process, creating it on
// first use the way the ingest planes do.
func observe(t *testing.T, n *Node, id string, acts, auds [][]float64, from, to int) []aovlis.Result {
	t.Helper()
	if err := n.ensure(id); err != nil {
		t.Fatal(err)
	}
	var out []aovlis.Result
	for i := from; i < to; i++ {
		r, err := n.pool.Observe(id, acts[i], auds[i])
		if err != nil {
			t.Fatalf("channel %s segment %d: %v", id, i, err)
		}
		out = append(out, r)
	}
	return out
}

// reference scores acts[:to] on a fresh template clone and returns the
// results from index from on: what an undisturbed channel would have said.
func reference(t *testing.T, acts, auds [][]float64, from, to int) []aovlis.Result {
	t.Helper()
	clone, err := template(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	var out []aovlis.Result
	for i := 0; i < to; i++ {
		r, err := clone.Observe(acts[i], auds[i])
		if err != nil {
			t.Fatal(err)
		}
		if i >= from {
			out = append(out, r)
		}
	}
	return out
}

func sameResults(t *testing.T, what string, got, want []aovlis.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) ||
			got[i].Anomaly != want[i].Anomaly || got[i].Warmup != want[i].Warmup || got[i].Path != want[i].Path {
			t.Fatalf("%s: result %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	ok := testConfig(dirs{})
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"periodic snapshots without a directory", func(c *Config) { c.SnapshotEvery = time.Second }, "-snapshot-every needs -snapshot-dir"},
		{"negative snapshot cadence", func(c *Config) { c.SnapshotDir, c.SnapshotEvery = "x", -1 }, "-snapshot-every needs -snapshot-dir"},
		{"empty ledger batches", func(c *Config) { c.LedgerDir, c.LedgerBatch = "x", 0 }, "-ledger-batch must be at least 1"},
		{"absorb weight out of range", func(c *Config) { c.Continual, c.AbsorbEvery, c.AbsorbWeight = true, time.Second, 1.5 }, "-absorb-weight 1.5 outside (0,1]"},
		{"absorb weight zero", func(c *Config) { c.Continual, c.AbsorbEvery, c.AbsorbWeight = true, time.Second, 0 }, "-absorb-weight 0 outside (0,1]"},
		{"continual without a cadence", func(c *Config) { c.Continual, c.AbsorbWeight = true, 0.5 }, "-continual needs a positive -absorb-every"},
		{"no shards", func(c *Config) { c.Pool.Shards = 0 }, "Shards"},
	} {
		cfg := ok
		tc.edit(&cfg)
		if _, err := Open(template(t), cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Open = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestOpenRestoresOrStartsEmpty walks Open's three answers to a snapshot
// directory: none committed there yet → an empty pool; a manifest → a warm
// restart that continues bit-equal to an undisturbed channel; something
// present but unreadable → no boot, and the directory left as it was.
func TestOpenRestoresOrStartsEmpty(t *testing.T) {
	acts, auds := testSeries(11, 20)

	t.Run("no snapshot yet", func(t *testing.T) {
		for _, dir := range []string{"", filepath.Join(t.TempDir(), "never-written")} {
			n, _ := open(t, testConfig(dirs{snap: dir}))
			if got := n.pool.Len(); got != 0 {
				t.Fatalf("snapshot dir %q: booted with %d channels, want none", dir, got)
			}
			shut(t, n)
		}
	})

	t.Run("manifest", func(t *testing.T) {
		cfg := testConfig(dirs{snap: t.TempDir()})
		n, _ := open(t, cfg)
		observe(t, n, "a", acts, auds, 0, 10)
		shut(t, n)

		n2, book := open(t, cfg)
		defer shut(t, n2)
		if !strings.Contains(book.String(), "warm restart: restored 1 channels") {
			t.Fatalf("no warm-restart line in the boot log:\n%s", book)
		}
		if st, err := n2.pool.Stats("a"); err != nil || st.Observed != 10 {
			t.Fatalf("restored channel: %+v, %v; want 10 observed", st, err)
		}
		sameResults(t, "after the warm restart", observe(t, n2, "a", acts, auds, 10, 20), reference(t, acts, auds, 10, 20))
	})

	t.Run("unreadable", func(t *testing.T) {
		dir := t.TempDir()
		garbage := []byte("not a manifest")
		if err := os.WriteFile(filepath.Join(dir, manifest.Name), garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(dirs{snap: dir})
		cfg.Logf = t.Logf
		if _, err := Open(template(t), cfg); err == nil || !strings.Contains(err.Error(), "present but unreadable") {
			t.Fatalf("Open on a corrupt manifest = %v, want a refusal", err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 {
			t.Fatalf("directory after the refused boot: %v, %v; want the manifest alone", ents, err)
		}
		if b, err := os.ReadFile(filepath.Join(dir, manifest.Name)); err != nil || !bytes.Equal(b, garbage) {
			t.Fatalf("refused boot rewrote the manifest: %q, %v", b, err)
		}
	})
}

// TestOpenRefusesTamperedLedger: a ledger that fails its own chain
// verification is not appended to.
func TestOpenRefusesTamperedLedger(t *testing.T) {
	d := dirs{ledger: t.TempDir()}
	acts, auds := testSeries(13, 16)
	n, _ := open(t, testConfig(d))
	observe(t, n, "a", acts, auds, 0, 16)
	shut(t, n)

	batch := filepath.Join(d.ledger, "batch-00000001.blk")
	b, err := os.ReadFile(batch)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x01
	if err := os.WriteFile(batch, b, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(d)
	cfg.Logf = t.Logf
	if _, err := Open(template(t), cfg); err == nil || !strings.Contains(err.Error(), "opening verdict ledger") {
		t.Fatalf("Open on a tampered ledger = %v, want a refusal", err)
	}
}

// TestReplayedVerdictsReachTheLedger pins the boot order: the sinks attach
// before the journal replays, so the verdicts of replayed records are
// ledgered (and published) like live ones.
func TestReplayedVerdictsReachTheLedger(t *testing.T) {
	d := allDirs(t)
	d.snap = "" // never checkpointed: the whole journal replays
	acts, auds := testSeries(17, 12)
	n, _ := open(t, testConfig(d))
	observe(t, n, "a", acts, auds, 0, 12)
	shut(t, n)
	first, err := ledger.Verify(d.ledger)
	if err != nil || first.Entries != 12-4 {
		t.Fatalf("ledger after the first run: %+v, %v; want the 8 non-warmup verdicts", first, err)
	}

	n2, book := open(t, testConfig(d))
	if !strings.Contains(book.String(), "replayed 12 records") {
		t.Fatalf("boot log:\n%s", book)
	}
	shut(t, n2)
	if again, err := ledger.Verify(d.ledger); err != nil || again.Entries != 2*first.Entries {
		t.Fatalf("ledger after the replay: %+v, %v; want %d entries", again, err, 2*first.Entries)
	}
}

// TestNonFiniteVerdictProofIsServable: a segment whose audience features
// are all 1e200 scores +Inf, and the ledger records that score. Its proof
// must be servable — encoding/json refuses +Inf as a number — and decode
// back to an entry scored +Inf whose proof verifies.
func TestNonFiniteVerdictProofIsServable(t *testing.T) {
	n, _ := open(t, testConfig(allDirs(t)))
	defer shut(t, n)
	acts, auds := testSeries(41, 6)
	for i := range auds[5] {
		auds[5][i] = 1e200
	}
	res := observe(t, n, "hostile", acts, auds, 0, 6)
	if !math.IsInf(res[5].Score, 1) {
		t.Fatalf("hostile segment scored %v, want +Inf", res[5].Score)
	}
	if err := n.ledger.Flush(); err != nil {
		t.Fatal(err)
	}
	srv := wiretest.NewServer(t, n.Handler())
	// Segments 4 and 5 are the channel's verdicts: ledger seqs 1 and 2.
	resp, err := http.Get(srv.URL + "/ledger/proof/2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p ledger.Proof
	if err := json.NewDecoder(resp.Body).Decode(&p); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("GET /ledger/proof/2: status %d, decoding %v", resp.StatusCode, err)
	}
	if !math.IsInf(p.Entry.Score, 1) || p.Entry.Channel != "hostile" {
		t.Fatalf("proof carries %+v, want channel hostile scored +Inf", p.Entry)
	}
	if err := ledger.VerifyProof(p); err != nil {
		t.Fatalf("served proof does not verify: %v", err)
	}
}

// TestWriteJSONEncodeError: a body that cannot be encoded answers 500, not
// 200 with an empty body.
func TestWriteJSONEncodeError(t *testing.T) {
	rec := &wiretest.Recorder{}
	wire.WriteJSON(rec, func(j *wire.JSON) { j.Object().Key("score").Float(math.Inf(1)).EndObject() })
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "encoding response") {
		t.Fatalf("writeJSON of +Inf answered %d %q, want 500", rec.Code, rec.Body.String())
	}
}

// TestCloseWritesTheFinalCheckpoint: what Close leaves behind is a
// checkpoint that covers everything accepted, so the next Open restores it
// and has nothing to replay.
func TestCloseWritesTheFinalCheckpoint(t *testing.T) {
	d := allDirs(t)
	acts, auds := testSeries(19, 24)
	n, book := open(t, testConfig(d))
	observe(t, n, "a", acts, auds, 0, 14)
	shut(t, n)
	if !strings.Contains(book.String(), "final snapshot: 1 channels") {
		t.Fatalf("shutdown log:\n%s", book)
	}

	n2, book2 := open(t, testConfig(d))
	defer shut(t, n2)
	if !strings.Contains(book2.String(), "replayed 0 records (14 below checkpoint floors)") {
		t.Fatalf("boot log:\n%s", book2)
	}
	sameResults(t, "after the restart", observe(t, n2, "a", acts, auds, 14, 24), reference(t, acts, auds, 14, 24))
}

// TestOpenCloseRepeatedly runs two full lives of a node — every store on,
// both loops ticking, traffic on two channels — on one set of directories.
// Under -race it is the check that nothing of the first life is still
// running when the second starts.
func TestOpenCloseRepeatedly(t *testing.T) {
	cfg := testConfig(allDirs(t))
	cfg.SnapshotEvery, cfg.Continual, cfg.AbsorbEvery, cfg.AbsorbWeight = time.Millisecond, true, time.Millisecond, 0.25
	acts, auds := testSeries(23, 40)
	for life := 0; life < 2; life++ {
		n, _ := open(t, cfg)
		var wg sync.WaitGroup
		for _, id := range []string{"a", "b"} {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				if err := n.ensure(id); err != nil {
					t.Error(err)
					return
				}
				for i := life * 20; i < life*20+20; i++ {
					if _, err := n.pool.Observe(id, acts[i], auds[i]); err != nil {
						t.Errorf("life %d channel %s segment %d: %v", life, id, i, err)
						return
					}
				}
			}(id)
		}
		wg.Wait()
		shut(t, n)
	}
	n, _ := open(t, cfg)
	defer shut(t, n)
	for _, id := range []string{"a", "b"} {
		if st, err := n.pool.Stats(id); err != nil || st.Observed != 40 {
			t.Fatalf("channel %s after two lives: %+v, %v; want 40 observed", id, st, err)
		}
	}
}

// liveLeg streams acts over /live/{id} and returns the advertised resume
// floor and the seq of every decision, which must be verdicts of this
// connection's own segments — a replayed decision of an earlier session
// would show up as an extra message.
func liveLeg(t *testing.T, srv *wiretest.Server, id string, acts, auds [][]float64) (floor uint64, seqs []uint64) {
	t.Helper()
	conn, resp, err := liveplane.Dial(srv.URL+"/live/"+id, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	floor, err = strconv.ParseUint(resp.Header.Get(wire.ResumeHeader), 10, 64)
	if err != nil {
		t.Fatalf("resume header %q", resp.Header.Get(wire.ResumeHeader))
	}
	for i := range acts {
		line := wire.AppendObservation(nil, acts[i], auds[i])
		if err := conn.WriteMessage(liveplane.OpText, line[:len(line)-1]); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("decision %d: %v", i, err)
		}
		var d wire.Decision
		if err := wire.DecodeDecision(msg, &d); err != nil || !d.Verdict() {
			t.Fatalf("decision %d = %s (%v), want a verdict", i, msg, err)
		}
		if want := reference(t, acts, auds, i, i+1)[0]; math.Float64bits(d.Score) != math.Float64bits(want.Score) {
			t.Fatalf("decision %d scores %v, a fresh channel's segment %d scores %v: not this stream's", i, d.Score, i, want.Score)
		}
		seqs = append(seqs, d.Seq)
	}
	return floor, seqs
}

// TestDetachForgetsTheLiveSession is S1: DELETE /channels/{id} ends the
// channel on the hub too. A client that streams over /live, has the channel
// detached and connects again meets a fresh channel — its own floor, no
// replay of the detached incarnation's decisions, strictly increasing seqs
// — instead of the old ring and a connection reset on every verdict at or
// below the stale floor. With a journal the new incarnation numbers on
// from its tombstone (S2), without one it starts over.
func TestDetachForgetsTheLiveSession(t *testing.T) {
	for _, tc := range []struct {
		name      string
		d         dirs
		wantFloor uint64
	}{
		{"journaled", dirs{wal: t.TempDir()}, 13},
		{"unjournaled", dirs{}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := open(t, testConfig(tc.d))
			srv := wiretest.NewServer(t, n.Handler())
			defer func() { n.Drain(); srv.Close(); n.Close() }()
			acts, auds := testSeries(29, 12)
			acts2, auds2 := testSeries(30, 12) // a different stream: a replayed decision cannot pass for a new one

			if floor, seqs := liveLeg(t, srv, "x", acts, auds); floor != 0 || seqs[0] != 1 || seqs[11] != 12 {
				t.Fatalf("first incarnation: floor %d, seqs %v", floor, seqs)
			}
			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/channels/x", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("DELETE status %d", resp.StatusCode)
			}
			sess, err := n.hub.Acquire("x")
			if err != nil {
				t.Fatal(err)
			}
			var ringed int
			sess.Replay(0, func(uint64, []byte) error { ringed++; return nil })
			sess.Release()
			if ringed != 0 {
				t.Fatalf("hub still rings %d decisions of the detached channel", ringed)
			}

			floor, seqs := liveLeg(t, srv, "x", acts2, auds2)
			if floor != tc.wantFloor {
				t.Fatalf("second incarnation's floor %d, want %d", floor, tc.wantFloor)
			}
			for i, seq := range seqs {
				if want := tc.wantFloor + uint64(i) + 1; seq != want {
					t.Fatalf("second incarnation's decision %d has seq %d, want %d (all: %v)", i, seq, want, seqs)
				}
			}
		})
	}
}

// TestUnjournaledNodeNumbersEverySegment: a node without a journal numbers
// every accepted segment with its channel's sequence, as a journaled one
// does. NDJSON decisions carry it as wseq, ledger entries as channel_seq,
// a /live verdict's seq is its wseq, and a reconnect's resume floor is the
// pool's applied sequence.
func TestUnjournaledNodeNumbersEverySegment(t *testing.T) {
	n, _ := open(t, testConfig(dirs{ledger: t.TempDir()}))
	srv := wiretest.NewServer(t, n.Handler())
	defer func() { n.Drain(); srv.Close(); n.Close() }()
	acts, auds := testSeries(31, 12)

	var body []byte
	for i := range acts {
		body = wire.AppendObservation(body, acts[i], auds[i])
	}
	resp, err := http.Post(srv.URL+"/channels/a/observe", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	lines, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var k uint64
	for _, line := range bytes.Split(bytes.TrimSpace(lines), []byte("\n")) {
		var d wire.Decision
		if err := wire.DecodeDecision(line, &d); err != nil {
			t.Fatalf("decision %q: %v", line, err)
		}
		if d.Seq != k || d.WSeq != k+1 {
			t.Fatalf("NDJSON decision %d carries seq %d wseq %d, want %d and %d", k, d.Seq, d.WSeq, k, k+1)
		}
		k++
	}
	if k != uint64(len(acts)) {
		t.Fatalf("%d decisions for %d lines", k, len(acts))
	}
	// Segments 1-4 warm up; the channel's first ledgered verdict is its 5th.
	if err := n.ledger.Flush(); err != nil {
		t.Fatal(err)
	}
	if resp, err = http.Get(srv.URL + "/ledger/proof/1"); err != nil {
		t.Fatal(err)
	}
	var p ledger.Proof
	err = json.NewDecoder(resp.Body).Decode(&p)
	resp.Body.Close()
	if err != nil || p.Entry.Channel != "a" || p.Entry.ChannelSeq != 5 {
		t.Fatalf("ledger entry 1 = %+v (%v), want channel a at channel_seq 5", p.Entry, err)
	}

	conn, _, err := liveplane.Dial(srv.URL+"/live/b", nil)
	if err != nil {
		t.Fatal(err)
	}
	const sent = 6
	for i := 0; i < sent; i++ {
		line := wire.AppendObservation(nil, acts[i], auds[i])
		if err := conn.WriteMessage(liveplane.OpText, line[:len(line)-1]); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		var d wire.Decision
		if err := wire.DecodeDecision(msg, &d); err != nil || d.Seq != uint64(i+1) || d.WSeq != d.Seq {
			t.Fatalf("live decision %d = %s (%v), want seq and wseq %d", i, msg, err, i+1)
		}
	}
	conn.Close()
	hdr := wire.Header{}
	hdr.Set(wire.LastSeqHeader, strconv.Itoa(sent))
	for deadline := time.Now().Add(10 * time.Second); ; {
		// The closed session's teardown may still hold the producer slot.
		conn, resp, err := liveplane.Dial(srv.URL+"/live/b", hdr)
		if resp != nil && resp.StatusCode == http.StatusConflict && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("reconnect: %v", err)
		}
		conn.Close()
		if got, applied := resp.Header.Get(wire.ResumeHeader), n.pool.AppliedSeq("b"); got != strconv.Itoa(sent) || applied != sent {
			t.Fatalf("reconnect resumes at %s, the pool applied %d; want both %d", got, applied, sent)
		}
		break
	}
}

// TestUnjournaledRestartNumbersOn: a node without a journal restored from
// its checkpoint numbers a channel on from what the checkpoint covers, so
// the ledger never holds two entries under one (channel, channel_seq).
func TestUnjournaledRestartNumbersOn(t *testing.T) {
	d := dirs{snap: t.TempDir(), ledger: t.TempDir()}
	acts, auds := testSeries(17, 24)
	n, _ := open(t, testConfig(d))
	observe(t, n, "a", acts, auds, 0, 12)
	shut(t, n) // the final checkpoint covers seq 12
	n, _ = open(t, testConfig(d))
	observe(t, n, "a", acts, auds, 12, 24)
	if got := n.pool.AppliedSeq("a"); got != 24 {
		t.Fatalf("applied floor after the restart's 12 segments %d, want 24", got)
	}
	if err := n.ledger.Flush(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for s := uint64(1); ; s++ {
		p, err := n.ledger.Proof(s)
		if err != nil {
			break
		}
		if seen[p.Entry.ChannelSeq] {
			t.Fatalf("ledger entry %d reuses channel_seq %d", s, p.Entry.ChannelSeq)
		}
		seen[p.Entry.ChannelSeq] = true
	}
	shut(t, n)
	if len(seen) != 20 {
		t.Fatalf("ledger holds %d verdicts, want 20 (4 warm-ups, then the restored window scores every segment)", len(seen))
	}
}

// TestDetachIsDurable is S2's restart half: a detached channel stays
// detached across a restart on the same directories — the journal replay
// meets its tombstone — so a later migrate-back import is a 201, not a 409
// against a channel the node replayed back into existence.
func TestDetachIsDurable(t *testing.T) {
	d := allDirs(t)
	d.snap = "" // replay everything: the tombstone alone must keep x away
	acts, auds := testSeries(31, 12)
	n, _ := open(t, testConfig(d))
	observe(t, n, "x", acts, auds, 0, 12)
	observe(t, n, "y", acts, auds, 0, 5)
	var blob bytes.Buffer
	floor, err := n.pool.ExportChannel("x", &blob)
	if err != nil || floor != 12 {
		t.Fatalf("export of x: floor %d (%v), want 12", floor, err)
	}
	if err := n.detach("x"); err != nil {
		t.Fatal(err)
	}
	shut(t, n)

	n2, book := open(t, testConfig(d))
	defer shut(t, n2)
	if got := n2.pool.Channels(); !reflect.DeepEqual(got, []string{"y"}) {
		t.Fatalf("channels after the restart: %v, want y alone\n%s", got, book)
	}
	req, err := wire.NewRequest(wire.MethodPut, "http://node/channels/x/snapshot", &blob)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(wire.ResumeHeader, strconv.FormatUint(floor, 10))
	rec := &wiretest.Recorder{}
	if n2.Handler().ServeHTTP(rec, req); rec.Code != wire.StatusCreated {
		t.Fatalf("migrating x back after the restart: status %d", rec.Code)
	}
	// The journal still holds the first incarnation's records: the import
	// at floor 12 attaches at the tombstone, 13, above it, so no (channel,
	// seq) names two records.
	if got := n2.pool.AppliedSeq("x"); got != 13 {
		t.Fatalf("x imported at floor 12 over its tombstone: applied %d, want 13", got)
	}
	out := make(chan serve.Outcome, 1)
	if err := n2.pool.SubmitInto("x", acts[0], auds[0], out); err != nil {
		t.Fatal(err)
	}
	if o := <-out; o.Err != nil || o.Seq != 14 {
		t.Fatalf("first record of the new incarnation: %+v, want seq 14", o)
	}
}

// TestReplayKeepsOnlyTheLastIncarnation: detach, attach again under the
// same id, restart. The replay applies the first incarnation's records,
// drops them at the tombstone and rebuilds the second from its own — so
// the channel resumes as the second incarnation alone, bit-equal to a
// fresh channel that saw only its segments.
func TestReplayKeepsOnlyTheLastIncarnation(t *testing.T) {
	for _, checkpointed := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpointed=%v", checkpointed), func(t *testing.T) {
			d := allDirs(t)
			cfg := testConfig(d)
			acts, auds := testSeries(37, 24)
			n, _ := open(t, cfg)
			observe(t, n, "x", acts, auds, 0, 12)
			if checkpointed {
				// A checkpoint of the first incarnation: the restart restores it
				// and must still drop it at the tombstone above its floor.
				if _, err := n.checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.detach("x"); err != nil {
				t.Fatal(err)
			}
			observe(t, n, "x", acts, auds, 0, 7)
			// Abandon the node — no final checkpoint — as a crash would.
			n.Drain()
			n.pool.Close()
			n.closeDurability()

			n2, book := open(t, cfg)
			defer shut(t, n2)
			if st, err := n2.pool.Stats("x"); err != nil || st.Observed != 7 {
				t.Fatalf("x after the restart: %+v, %v; want the second incarnation's 7 segments\n%s", st, err, book)
			}
			sameResults(t, "the second incarnation, resumed", observe(t, n2, "x", acts, auds, 7, 24), reference(t, acts, auds, 7, 24))
		})
	}
}

// TestCheckpointCoversRetiredChannels: a detached channel is in no
// manifest, so nothing but its tombstone can cover its journal records; a
// checkpoint after the detach removes the sealed segments that held them
// instead of keeping them forever.
func TestCheckpointCoversRetiredChannels(t *testing.T) {
	d := allDirs(t)
	acts, auds := testSeries(41, 40)
	// The journal a previous life left behind, in segments small enough that
	// x's records fill several sealed ones.
	j, err := wal.Open(d.wal, wal.Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := range acts {
		if err := j.Append("x", uint64(i+1), acts[i], auds[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	n, _ := open(t, testConfig(d))
	defer shut(t, n)
	observe(t, n, "y", acts, auds, 0, 5)
	if n.wal.Segments() < 3 {
		t.Fatalf("fixture sealed only %d segments", n.wal.Segments())
	}
	if err := n.detach("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := n.wal.Segments(); got != 1 {
		t.Fatalf("%d journal segments after a checkpoint that follows the detach, want the active one alone", got)
	}
}

// TestStatusForPoolErr pins the statuses by the error alone: an admission
// rejection asks the client to retry, a closed pool or a full channel table
// does not.
func TestStatusForPoolErr(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("%w (channel %q, shard 0)", serve.ErrRejected, "ch"), http.StatusTooManyRequests},
		{serve.ErrClosed, http.StatusServiceUnavailable},
		{fmt.Errorf("%w (%d)", errChannelLimit, 8), http.StatusServiceUnavailable},
		{fmt.Errorf("%w: %q", serve.ErrUnknownChannel, "ch"), http.StatusNotFound},
		{fmt.Errorf("%w: got %+v", errForeignConfig, core.Config{}), http.StatusUnprocessableEntity},
	} {
		if got := statusForPoolErr(tc.err); got != tc.want {
			t.Errorf("statusForPoolErr(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// importRuns counts TestImportKeepsOneConfiguration's runs.
var importRuns atomic.Int32

// TestImportKeepsOneConfiguration gates what snapshot uploads can make a
// node retain, at the benchmark's model shape. An upload whose model
// differs from the template only in its Seed is refused 422 before
// anything attaches or is journaled, and before its configuration is
// registered anywhere: 340 such uploads, each with an updater and a
// configuration the process has never run, leave the channel table and
// the journal as they were, and past the first 40, which fill ≈ 10 KB of
// one-time caches, the other 300 leave the heap within 8 KiB (≤ 0.4 KB
// read; registering each one's lane-set and trainer lists kept 14–118 KB
// in all). Accepted, each such configuration kept its scratch for the
// life of the process: 40 scored in 16-lane batches and detached retained
// ≈ 4.1 MB. Uploads of the template's own configuration share its
// scratch: 40 attached, scored and detached leave the heap within 64 KiB
// of where it was.
func TestImportKeepsOneConfiguration(t *testing.T) {
	const uploads, bound, refusals, refusedBound = 40, 64 << 10, 300, 8 << 10
	// No ledger: it keeps a hash of every verdict.
	d := dirs{wal: t.TempDir()}
	cfg := testConfig(d)
	cfg.MaxChannels = uploads
	cfg.Pool.Batch = 16
	cfg.Logf = t.Logf
	tmpl, acts, auds := benchShape(t, 0, false)
	n, err := Open(tmpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shut(t, n)
	h := n.Handler()
	put := func(id string, blob []byte) int {
		req, err := wire.NewRequest(wire.MethodPut, "http://node/channels/"+id+"/snapshot", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(wire.ResumeHeader, "0")
		rec := &wiretest.Recorder{}
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	snapshotOf := func(det *aovlis.Detector) []byte {
		var b bytes.Buffer
		if err := det.Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	// score runs the series through id in 16-lane batches: the shard is
	// held while each batch queues.
	score := func(id string) {
		for from := 0; from < len(acts); from += 16 {
			held, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
			go func() {
				done <- n.pool.WithChannel(id, func(*aovlis.Detector) error { close(held); <-release; return nil })
			}()
			<-held
			var outs []<-chan serve.Outcome
			for i := from; i < len(acts) && i < from+16; i++ {
				out := make(chan serve.Outcome, 1)
				err := n.pool.SubmitInto(id, acts[i], auds[i], out)
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, out)
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			for i, out := range outs {
				if o := <-out; o.Err != nil {
					t.Fatalf("channel %s segment %d: %v", id, from+i, o.Err)
				}
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	own := snapshotOf(tmpl)
	// cycle uploads own under k ids, scores each and detaches them all.
	cycle := func(prefix string, k int) {
		for i := 0; i < k; i++ {
			id := fmt.Sprintf("%s-%d", prefix, i)
			if code := put(id, own); code != http.StatusCreated {
				t.Fatalf("upload %s of the template's configuration answered %d, want 201", id, code)
			}
			score(id)
		}
		for i := 0; i < k; i++ {
			if err := n.detach(fmt.Sprintf("%s-%d", prefix, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// What any traffic makes once comes first: the lane sets of both shards
	// and a /watch ring full of verdicts as long as the measured cycle's
	// (its ids are as long, its scores the same).
	cycle("warm", uploads)

	// The uploads must carry configurations this process has never run, as
	// a peer's would: a model registers its configuration when it runs, so
	// training each here would register it before its upload. They are one
	// trained snapshot, with an updater, its Seed rewritten in place: a seed
	// in [2⁵⁵, 2⁶²) is gob's 0xF8 and eight bytes of its zigzag, and stays
	// that long when bumped.
	gobSeed := func(seed int64) []byte {
		b := make([]byte, 9)
		b[0] = 0xF8
		binary.BigEndian.PutUint64(b[1:], uint64(seed<<1)^uint64(seed>>63))
		return b
	}
	const base int64 = 0x3A5C_0000_0000_0000
	det, _, _ := benchShape(t, base, true)
	blob := snapshotOf(det)
	if bytes.Count(blob, gobSeed(base)) == 0 {
		t.Fatalf("snapshot of seed %#x holds no gob encoding of it", base)
	}
	// refuse uploads the k-th foreign snapshots for k in [from, to). Each
	// run of the test uses seeds of its own, new to the process however
	// often it repeats.
	run := int64(importRuns.Add(1)) << 20
	refuse := func(from, to int) {
		for k := from; k < to; k++ {
			reseeded := bytes.ReplaceAll(blob, gobSeed(base), gobSeed(base+run+int64(k)))
			if code := put(fmt.Sprintf("foreign-%d", k), reseeded); code != http.StatusUnprocessableEntity {
				t.Fatalf("foreign upload %d answered %d, want 422", k, code)
			}
		}
	}
	// The first refusals fill what a refusal makes once (about 10 KB of
	// decoder caches); each foreign configuration after them must add
	// nothing, where registering its lane-set and trainer lists kept at
	// least 112 B. The heap moves by up to ±10 KB between two reads here, so
	// the measured refusals are many.
	channels, journal := n.pool.Len(), n.wal.MaxSeqs()
	refuse(0, uploads)
	before := heap()
	refuse(uploads, uploads+refusals)
	grew := int64(heap()) - int64(before)
	runtime.KeepAlive(blob)
	if n.pool.Len() != channels || !reflect.DeepEqual(n.wal.MaxSeqs(), journal) {
		t.Fatalf("refused uploads changed the node: %d channels (was %d), journal %v (was %v)",
			n.pool.Len(), channels, n.wal.MaxSeqs(), journal)
	}
	t.Logf("%d refused foreign uploads retain %d B", refusals, grew)
	if grew > refusedBound {
		t.Errorf("%d refused foreign uploads retain %d B, want at most %d", refusals, grew, refusedBound)
	}

	before = heap()
	cycle("same", uploads)
	grew = int64(heap()) - int64(before)
	runtime.KeepAlive(own)
	t.Logf("%d uploads of the template's configuration, scored and detached, retain %d B", uploads, grew)
	if grew > bound {
		t.Errorf("%d uploads of the template's configuration retain %d B, want at most %d", uploads, grew, bound)
	}
}

// TestContinualWarmStartOnAttach pins the continual-learning seam: the
// node's template is the base. After k absorb sweeps its weights are, bit
// for bit, a base built by hand as template ← (1−w)·template + w·channel
// over every channel in the sweep's order; a channel attached then is a
// plain clone of it (weights shared, a fresh optimiser); a channel of
// another architecture is refused by the merge, logged and skipped; and the
// detector the node was opened with never moves.
func TestContinualWarmStartOnAttach(t *testing.T) {
	const w = 0.25
	cfg := testConfig(dirs{})
	cfg.Continual, cfg.AbsorbWeight, cfg.AbsorbEvery = true, w, time.Hour // swept by hand below
	n, book := open(t, cfg)
	defer shut(t, n)
	runtimeBytes := func(m interface{ SaveRuntime(io.Writer) error }) []byte {
		var b bytes.Buffer
		if err := m.SaveRuntime(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	opened := runtimeBytes(template(t).Model())

	// Channels: a veteran with genuinely different weights (same
	// architecture, another training seed), a cold clone, and an alien.
	vet := trainSmall(t, 99, 1)
	if err := n.pool.Attach("vet", vet); err != nil {
		t.Fatal(err)
	}
	acts, auds := testSeries(3, 1)
	observe(t, n, "cold", acts, auds, 0, 1)
	alienCfg := aovlis.DefaultConfig(testActionDim, testAudienceDim)
	alienCfg.HiddenI, alienCfg.HiddenA, alienCfg.SeqLen, alienCfg.Epochs = 6, 4, 4, 1
	alienActs, alienAuds := testSeries(5, 90)
	alien, err := aovlis.Train(alienActs, alienAuds, alienCfg)
	if err == nil {
		err = n.pool.Attach("alien", alien)
	}
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*aovlis.Detector{}
	for _, id := range n.pool.Channels() {
		if err := n.pool.WithChannel(id, func(det *aovlis.Detector) error {
			models[id] = det
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	base := template(t).Model().Clone()
	for sweep := 0; sweep < 3; sweep++ {
		n.absorbAll()
		for _, id := range n.pool.Channels() {
			if id != "alien" {
				if err := base.Merge(models[id].Model(), 1-w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if !strings.Contains(book.String(), "absorb alien: core: cannot merge") {
		t.Errorf("the alien channel's absorb was not refused and logged:\n%s", book)
	}

	observe(t, n, "warm", acts, auds, 0, 1)
	if err := n.pool.WithChannel("warm", func(det *aovlis.Detector) error {
		warm := det.Model()
		if !warm.Params().Shared() {
			t.Error("the warm-started channel copied the template's weights")
		}
		// Parameters bit-equal to the hand-built base, optimiser fresh:
		// base.Clone() has a fresh Adam.
		if !bytes.Equal(runtimeBytes(warm), runtimeBytes(base.Clone())) {
			t.Error("the warm-started channel is not a fresh clone of the hand-built base")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(runtimeBytes(base), runtimeBytes(template(t).Model().Clone())) {
		t.Error("three sweeps left the base at the cold template")
	}
	if !bytes.Equal(runtimeBytes(template(t).Model()), opened) {
		t.Error("the detector the node was opened with moved")
	}
}

// TestWarmStartedChannelFootprint gates what a warm start costs: at the
// benchmark's model shape (48 action classes, 19 audience dimensions, q = 9,
// 18 675 parameters), a channel attached to a continual node after an
// absorb sweep has written the template retains at most 32 KiB before it
// writes — it shares the template's weights as any clone does, where a
// channel seeded with a copy of them retains ≈ 160 KB.
func TestWarmStartedChannelFootprint(t *testing.T) {
	tmpl, _, _ := benchShape(t, 0, false)
	const channels = 200
	cfg := testConfig(dirs{})
	cfg.MaxChannels = channels + 1
	cfg.Continual, cfg.AbsorbWeight, cfg.AbsorbEvery = true, 0.25, time.Hour // swept by hand below
	cfg.Logf = t.Logf
	n, err := Open(tmpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shut(t, n)
	if err := n.ensure("veteran"); err != nil {
		t.Fatal(err)
	}
	n.absorbAll()

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < channels; i++ {
		if err := n.ensure(fmt.Sprintf("warm-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	per := (float64(heap()) - float64(before)) / channels
	t.Logf("a warm-started channel retains %.0f B", per)
	if per > 32<<10 {
		t.Errorf("a warm-started channel retains %.0f B, want at most %d", per, 32<<10)
	}
}

// TestWatchSinkSteadyStateAllocs pins the verdict's way to the dashboard at
// zero allocations: the watch sink encodes the line on its stack and the
// hub copies it into a ring slot it reuses, so once the ring is full a
// Record → Publish allocates nothing.
func TestWatchSinkSteadyStateAllocs(t *testing.T) {
	hub := liveplane.NewHub()
	defer hub.Close()
	sink := watchSink{hub}
	res := aovlis.Result{Anomaly: true, Score: 0.0123456789, Exact: true, Path: "exact"}
	const watchCap = 1024 // the hub's ring, filled
	for seq := uint64(1); seq <= watchCap; seq++ {
		sink.Record("ch-0", seq, res)
	}
	seq := uint64(watchCap)
	if n := testing.AllocsPerRun(100, func() {
		seq++
		sink.Record("ch-0", seq, res)
	}); n != 0 {
		t.Fatalf("watch sink Record allocates %v times per verdict, want 0", n)
	}
}

// TestPprofEndpoints: with Pprof on, /debug/pprof/ serves runtime/pprof's
// profiles — text for heap?debug=1, gzipped protobuf for allocs and a CPU
// profile — and an execution trace, and refuses a profile it does not
// know; with Pprof off the paths are not routed.
func TestPprofEndpoints(t *testing.T) {
	get := func(srv *wiretest.Server, path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp.StatusCode, b
	}
	gzipped := func(b []byte) bool { return len(b) > 2 && b[0] == 0x1f && b[1] == 0x8b }

	cfg := testConfig(dirs{})
	cfg.Pprof = true
	n, _ := open(t, cfg)
	defer shut(t, n)
	srv := wiretest.NewServer(t, n.Handler())
	if code, b := get(srv, "/debug/pprof/heap?debug=1"); code != http.StatusOK || !bytes.Contains(b, []byte("# HeapAlloc")) {
		t.Fatalf("heap?debug=1: %d, %.80q", code, b)
	}
	for _, path := range []string{"/debug/pprof/allocs", "/debug/pprof/profile?seconds=1"} {
		if code, b := get(srv, path); code != http.StatusOK || !gzipped(b) {
			t.Fatalf("%s: %d, %.16q; want gzip data", path, code, b)
		}
	}
	if code, b := get(srv, "/debug/pprof/trace?seconds=1"); code != http.StatusOK || len(b) == 0 {
		t.Fatalf("trace: %d, %d bytes", code, len(b))
	}
	if code, b := get(srv, "/debug/pprof/"); code != http.StatusOK || !bytes.Contains(b, []byte("goroutine")) {
		t.Fatalf("index: %d, %q", code, b)
	}
	if code, _ := get(srv, "/debug/pprof/nosuch"); code != http.StatusNotFound {
		t.Fatalf("an unknown profile answered %d, want 404", code)
	}

	cfg.Pprof = false
	off, _ := open(t, cfg)
	defer shut(t, off)
	if code, _ := get(wiretest.NewServer(t, off.Handler()), "/debug/pprof/heap"); code != http.StatusNotFound {
		t.Fatalf("with Pprof off, heap answered %d, want 404", code)
	}
}
