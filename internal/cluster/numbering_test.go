package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/ledger"
	"aovlis/internal/mat"
	"aovlis/internal/node"
	"aovlis/internal/serve"
	"aovlis/internal/stream/liveplane"
	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// numberedFleet trains one small detector and returns it with segs
// observations for it and their NDJSON lines.
func numberedFleet(t *testing.T, segs int) (det *aovlis.Detector, acts, auds [][]float64, lines []string) {
	t.Helper()
	const actionDim, audienceDim = 8, 4
	rng := rand.New(rand.NewSource(7))
	series := func(n int) (acts, auds [][]float64) {
		for i := 0; i < n; i++ {
			f := make([]float64, actionDim)
			f[(i/3)%actionDim] = 1
			for j := range f {
				f[j] += 0.02 + 0.01*rng.Float64()
			}
			mat.Normalize(f)
			a := make([]float64, audienceDim)
			for j := range a {
				a[j] = 0.3 + 0.03*rng.NormFloat64()
			}
			acts, auds = append(acts, f), append(auds, a)
		}
		return acts, auds
	}
	cfg := aovlis.DefaultConfig(actionDim, audienceDim)
	cfg.HiddenI, cfg.HiddenA, cfg.SeqLen, cfg.Epochs, cfg.Seed = 6, 4, 3, 1, 5
	trainA, trainU := series(48)
	det, err := aovlis.Train(trainA, trainU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acts, auds = series(segs)
	for i := range acts {
		lines = append(lines, string(bytes.TrimSuffix(wire.AppendObservation(nil, acts[i], auds[i]), []byte("\n"))))
	}
	return det, acts, auds, lines
}

// openNumbered opens a node on det with cfg's directories, serves it, and
// returns it with its spec (the directories shared with the router).
func openNumbered(t *testing.T, det *aovlis.Detector, name string, cfg node.Config) (*node.Node, NodeSpec) {
	t.Helper()
	cfg.MaxChannels, cfg.NodeID, cfg.Logf = 16, name, t.Logf
	cfg.Pool = serve.Config{Shards: 1, QueueDepth: 64}
	n, err := node.Open(det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, NodeSpec{Name: name, URL: wiretest.NewServer(t, n.Handler()).URL,
		SnapshotDir: cfg.SnapshotDir, WALDir: cfg.WALDir}
}

// reference scores the series on a clone of det that never moved.
func reference(t *testing.T, det *aovlis.Detector, acts, auds [][]float64) []aovlis.Result {
	t.Helper()
	ref, err := det.Clone()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.DetectSeries(acts, auds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameVerdict reports whether a decision carries the verdict r, bit for bit.
func sameVerdict(d wire.Decision, r aovlis.Result) bool {
	return d.Warmup == r.Warmup && d.Anomaly == r.Anomaly && d.Score == r.Score
}

// ledgered reads every verdict in the node's ledger (batches of one, so
// each is committed as it is scored) and counts them by channel_seq.
func ledgered(t *testing.T, url, id string, into map[uint64]int) {
	t.Helper()
	for s := 1; ; s++ {
		resp, err := http.Get(fmt.Sprintf("%s/ledger/proof/%d", url, s))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			return
		}
		var p ledger.Proof
		err = json.NewDecoder(resp.Body).Decode(&p)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if p.Entry.Channel == id {
			into[p.Entry.ChannelSeq]++
		}
	}
}

// TestLiveMoveKeepsOneNumbering: a channel streams 10 verdicts over /live
// through the router, and a rebalance moves it to its canonical owner. The
// new owner holds it at floor 10, so a reconnect with Last-Seq 10 is
// accepted and the next verdict is seq and wseq 11. Every verdict is
// bit-equal to an unmoved detector's, and the two nodes' ledgers together
// hold each channel_seq once.
func TestLiveMoveKeepsOneNumbering(t *testing.T) {
	const before, segs = 10, 15
	det, acts, auds, lines := numberedFleet(t, segs)
	want := reference(t, det, acts, auds)
	specs := make([]NodeSpec, 2)
	for i := range specs {
		_, specs[i] = openNumbered(t, det, fmt.Sprintf("live-%d", i),
			node.Config{LedgerDir: t.TempDir(), LedgerBatch: 1})
	}
	r, err := New(Config{Nodes: specs, Window: 8, FailoverWait: 5 * time.Second,
		RetryEvery: 10 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	srv := wiretest.NewServer(t, r.Handler())

	// Place the channel off its canonical owner: stream while that node
	// is out of the ring, then let it back in.
	const id = "mover"
	canon, err := r.ring.Load().PlaceAll([]string{id})
	if err != nil {
		t.Fatal(err)
	}
	home := r.byName[canon[id]]
	home.alive.Store(false)
	if err := r.rebuildRing(); err != nil {
		t.Fatal(err)
	}
	var got []wire.Decision
	stream := func(lastSeq string, from, to int) string {
		t.Helper()
		hdr := wire.Header{}
		if lastSeq != "" {
			hdr.Set(wire.LastSeqHeader, lastSeq)
		}
		conn, resp, err := liveplane.Dial(srv.URL+"/live/"+id, hdr)
		if err != nil {
			t.Fatalf("dial with Last-Seq %q: %v", lastSeq, err)
		}
		defer conn.Close()
		for i := from; i < to; i++ {
			if err := conn.WriteMessage(liveplane.OpText, []byte(lines[i])); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			_, msg, err := conn.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			var d wire.Decision
			if err := wire.DecodeDecision(msg, &d); err != nil {
				t.Fatal(err)
			}
			got = append(got, d)
		}
		return resp.Header.Get(wire.ResumeHeader)
	}
	stream("", 0, before)
	if owner, _, _ := r.tbl.get(id).state(); owner == home {
		t.Fatal("the channel streamed on its canonical owner; the rebalance would move nothing")
	}
	r.reviveNode(home)
	rep, err := r.Rebalance()
	if err != nil || rep.Moved != 1 || !rep.Moves[0].Warm {
		t.Fatalf("rebalance: %+v, %v; want one warm move", rep, err)
	}

	if floor := stream(strconv.Itoa(before), before, segs); floor != strconv.Itoa(before) {
		t.Fatalf("the new owner resumes at floor %q, want %d", floor, before)
	}
	ledgers := map[uint64]int{}
	for _, spec := range specs {
		ledgered(t, spec.URL, id, ledgers)
	}
	verdicts := 0
	for i, d := range got {
		if wantSeq := uint64(i + 1); d.Seq != wantSeq || d.WSeq != wantSeq {
			t.Fatalf("verdict %d: seq %d wseq %d, want both %d", i, d.Seq, d.WSeq, wantSeq)
		}
		if !sameVerdict(d, want[i]) {
			t.Fatalf("verdict %d: %+v, an unmoved detector's is %+v", i, d, want[i])
		}
		if n := ledgers[d.WSeq]; !d.Warmup && n != 1 {
			t.Fatalf("channel_seq %d is in the ledgers %d times, want once", d.WSeq, n)
		}
		if !d.Warmup {
			verdicts++
		}
	}
	if len(got) != segs || len(ledgers) != verdicts {
		t.Fatalf("%d decisions for %d segments; the ledgers hold %d channel_seqs for %d verdicts", len(got), segs, len(ledgers), verdicts)
	}
}

// TestFailoverNumbersOnAtTheCheckpoint: the dead node checkpointed a
// channel at 10 and scored 5 more, all relayed. Failover imports the
// checkpoint at 10 and replays 11–15 at their own sequences, so the new
// owner's floor is 15, the next segment is 16, and every verdict is
// bit-equal to an undisturbed run. A second channel, detached after the
// checkpoint and attached again, comes back as a template clone attached
// at its tombstone with its second incarnation replayed on it.
func TestFailoverNumbersOnAtTheCheckpoint(t *testing.T) {
	const ckpt, relayed, segs = 10, 15, 18
	det, acts, auds, lines := numberedFleet(t, segs)
	_, vspec := openNumbered(t, det, "node-a",
		node.Config{SnapshotDir: t.TempDir(), WALDir: t.TempDir()})
	_, sspec := openNumbered(t, det, "node-b",
		node.Config{SnapshotDir: t.TempDir(), WALDir: t.TempDir()})
	r, err := New(Config{Nodes: []NodeSpec{vspec, sspec}, Window: 8, FailoverWait: 5 * time.Second,
		RetryEvery: 10 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	srv := wiretest.NewServer(t, r.Handler())
	own(t, r, "warm", "node-a")
	own(t, r, "reborn", "node-a")

	var warm, reborn []wire.Decision
	warm = observeThrough(t, srv.URL, "warm", lines[:ckpt])
	observeThrough(t, srv.URL, "reborn", lines[:3])
	resp, err := http.Post(vspec.URL+"/snapshot", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %v", err)
	}
	resp.Body.Close()
	warm = append(warm, observeThrough(t, srv.URL, "warm", lines[ckpt:relayed])...)
	// reborn's tombstone is its sequence 4; its second incarnation numbers
	// 5–8 on from it.
	if err := r.byName["node-a"].deleteChannel("reborn"); err != nil {
		t.Fatal(err)
	}
	reborn = observeThrough(t, srv.URL, "reborn", lines[:4])

	if err := r.FailNode("node-a"); err != nil {
		t.Fatal(err)
	}
	survivor := r.byName["node-b"]
	for id, wantFloor := range map[string]uint64{"warm": relayed, "reborn": 8} {
		if owner, _, _ := r.tbl.get(id).state(); owner != survivor {
			t.Fatalf("%s owned by %s after the failover", id, owner.Spec.Name)
		}
		body, floor, err := survivor.exportSnapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		body.Close()
		if floor != wantFloor {
			t.Fatalf("the new owner holds %s at floor %d, want %d", id, floor, wantFloor)
		}
	}
	warm = append(warm, observeThrough(t, srv.URL, "warm", lines[relayed:])...)
	reborn = append(reborn, observeThrough(t, srv.URL, "reborn", lines[4:7])...)

	for _, c := range []struct {
		id    string
		got   []wire.Decision
		from  uint64
		wantR []aovlis.Result
	}{
		{"warm", warm, 0, reference(t, det, acts, auds)},
		{"reborn", reborn, 4, reference(t, det, acts[:7], auds[:7])},
	} {
		if len(c.got) != len(c.wantR) {
			t.Fatalf("%s: %d decisions, want %d", c.id, len(c.got), len(c.wantR))
		}
		for i, d := range c.got {
			if want := c.from + uint64(i) + 1; d.WSeq != want {
				t.Fatalf("%s segment %d numbered %d, want %d", c.id, i, d.WSeq, want)
			}
			if !sameVerdict(d, c.wantR[i]) {
				t.Fatalf("%s segment %d: %+v, an undisturbed detector's is %+v", c.id, i, d, c.wantR[i])
			}
		}
	}
}
