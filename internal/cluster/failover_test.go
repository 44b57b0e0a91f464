package cluster

// In-process failover and error-recovery tests. The multi-process soak in
// cmd/aovlisr pins the router against the real daemon, but it runs child
// binaries, so none of the recovery code it exercises shows up as covered
// — and its failure modes (a SIGKILLed process) can't be sequenced
// precisely. These tests drive the same paths with stub nodes whose
// failures happen on cue: idle-connection death after a failover, a node
// answering 500 mid-budget, 429 without Retry-After, revival.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aovlis/internal/snapshot"
	"aovlis/internal/snapshot/manifest"
	"aovlis/internal/wal"
	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// TestRouterIdleFailoverSeqContinuity is the regression pin for the
// idle-failover seq bug: a stream whose every accepted segment is already
// acknowledged (npending == 0) loses its owner; the replacement connection
// opens with NOTHING pending, so probeOpen cannot derive the offset from
// the pending ring — it must come from the stream's next client seq.
// Before the fix the new node's restarted numbering passed through
// verbatim and the client saw seq 0 again mid-stream.
func TestRouterIdleFailoverSeqContinuity(t *testing.T) {
	stubs, r, srv := newTestCluster(t, 2, func(cfg *Config) {
		cfg.ProbeEvery = 20 * time.Millisecond
		cfg.ProbeTimeout = 200 * time.Millisecond
		cfg.FailAfter = 2
	})
	r.Start()

	// Open the stream and settle three segments, so the proxy goes idle
	// with its window empty.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/channels/steady/observe", pr)
	if err != nil {
		t.Fatal(err)
	}
	respCh := make(chan *http.Response, 1)
	go func() {
		resp, rerr := http.DefaultClient.Do(req)
		if rerr != nil {
			t.Error(rerr)
			close(respCh)
			return
		}
		respCh <- resp
	}()
	for i := 0; i < 3; i++ {
		if _, err := io.WriteString(pw, obsLine(float64(i)/10)+"\n"); err != nil {
			t.Fatal(err)
		}
	}
	resp, ok := <-respCh
	if !ok {
		t.Fatal("no response")
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	readDecision := func() wire.Decision {
		t.Helper()
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading decision: %v", err)
		}
		var d wire.Decision
		if err := json.Unmarshal(raw, &d); err != nil {
			t.Fatalf("bad decision %q: %v", raw, err)
		}
		return d
	}
	var victimIdx int
	for i := 0; i < 3; i++ {
		d := readDecision()
		if d.Seq != uint64(i) || d.Error != "" {
			t.Fatalf("pre-kill decision %d: %+v", i, d)
		}
		victimIdx = scoreNode(d.Score) - 1
	}
	victim := stubs[victimIdx]
	survivor := stubs[1-victimIdx]

	// Fail the owner: sick health first so the monitor re-places the
	// channel while the observe connection is still idle-open, THEN sever
	// that connection — the ack error now arrives with the survivor
	// already owning the channel, which is the buggy geometry.
	victim.sick.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for {
		e := r.tbl.get("steady")
		owner, _, _ := e.state()
		if owner.Spec.Name == survivor.name {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failover never re-placed the channel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	victim.srv.CloseClientConnections()

	// Give the proxy a beat to observe the dead connection and recover,
	// then continue the stream: seqs must continue from 3, scored by the
	// survivor, with no duplicate numbering.
	time.Sleep(50 * time.Millisecond)
	for i := 3; i < 6; i++ {
		if _, err := io.WriteString(pw, obsLine(float64(i)/10)+"\n"); err != nil {
			t.Fatal(err)
		}
		d := readDecision()
		if d.Error != "" {
			t.Fatalf("post-failover decision errored: %+v", d)
		}
		if d.Seq != uint64(i) {
			t.Fatalf("post-failover decision has seq %d, want %d — restarted numbering leaked through", d.Seq, i)
		}
		if scoreNode(d.Score)-1 != 1-victimIdx {
			t.Fatalf("post-failover decision scored by node %d, want survivor %d", scoreNode(d.Score)-1, 1-victimIdx)
		}
	}
	pw.Close()
}

// TestRouterFailoverBudgetExhausted: a node that answers observe with 500
// (broken, not overloaded) and never recovers. The proxy retries within
// FailoverWait, then must answer every accepted segment with an error line
// — the zero-loss contract's last resort — rather than hanging or dropping.
func TestRouterFailoverBudgetExhausted(t *testing.T) {
	stubs, _, srv := newTestCluster(t, 1, func(cfg *Config) {
		cfg.FailoverWait = 300 * time.Millisecond
		cfg.RetryEvery = 20 * time.Millisecond
	})
	stubs[0].fail500.Store(true)

	decs := observeThrough(t, srv.URL, "doomed", []string{obsLine(0.1), obsLine(0.2)})
	if len(decs) != 2 {
		t.Fatalf("%d decisions for 2 accepted segments — segments dropped silently", len(decs))
	}
	for i, d := range decs {
		if d.Seq != uint64(i) {
			t.Fatalf("error decision %d has seq %d", i, d.Seq)
		}
		if !strings.Contains(d.Error, "failover budget") && !strings.Contains(d.Error, "no owner reachable") {
			t.Fatalf("decision %d: error %q does not name the failover budget", i, d.Error)
		}
	}
}

// TestRouter429RelayDefaultRetryAfter: the node answers 429 with no
// Retry-After header at all (a proxy in between stripped it); the relay
// must still give the client a usable hint rather than vanishing.
func TestRouter429RelayDefaultRetryAfter(t *testing.T) {
	stubs, _, srv := newTestCluster(t, 1, nil)
	stubs[0].retryAfter.Store(0) // omit the header entirely
	stubs[0].reject.Store(true)

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/channels/hot/observe", strings.NewReader(obsLine(0.1)+"\n"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want the default %q", ra, "1")
	}
}

// TestRouterWindowFullBackpressure: a stream longer than the pipelining
// window forces the accept path to resolve acknowledgements before taking
// new lines (resolve); everything still answers in order.
func TestRouterWindowFullBackpressure(t *testing.T) {
	_, _, srv := newTestCluster(t, 1, func(cfg *Config) {
		cfg.Window = 2
	})
	lines := make([]string, 12)
	for i := range lines {
		lines[i] = obsLine(float64(i) / 100)
	}
	decs := observeThrough(t, srv.URL, "burst", lines)
	if len(decs) != len(lines) {
		t.Fatalf("%d decisions for %d lines", len(decs), len(lines))
	}
	for i, d := range decs {
		if d.Seq != uint64(i) || d.Error != "" {
			t.Fatalf("decision %d: %+v", i, d)
		}
	}
}

// TestRouterRevive: a node that fails over and then recovers must rejoin
// the placement ring (new channels may land on it again); its channels do
// not move back automatically — that is an explicit rebalance.
func TestRouterRevive(t *testing.T) {
	stubs, r, srv := newTestCluster(t, 2, func(cfg *Config) {
		cfg.ProbeEvery = 20 * time.Millisecond
		cfg.ProbeTimeout = 200 * time.Millisecond
		cfg.FailAfter = 2
	})
	r.Start()
	observeThrough(t, srv.URL, "warmup", []string{obsLine(0.1)})

	victim := r.nodes[0]
	var victimStub *stubNode
	for _, s := range stubs {
		if s.name == victim.Spec.Name {
			victimStub = s
		}
	}
	victimStub.sick.Store(true)
	waitCond(t, 5*time.Second, "node never declared dead", func() bool { return !victim.Alive() })

	victimStub.sick.Store(false)
	waitCond(t, 5*time.Second, "node never revived", func() bool { return victim.Alive() })

	// The revived node is placeable again: spread fresh channels and check
	// it picks some up (bounded-load placement over 2 alive nodes cannot
	// starve one of them across many channels).
	got := false
	for i := 0; i < 8 && !got; i++ {
		observeThrough(t, srv.URL, fmt.Sprintf("post-revive-%d", i), []string{obsLine(0.2)})
		got = victimStub.hasChannel(fmt.Sprintf("post-revive-%d", i))
	}
	if !got {
		t.Fatal("revived node never took a new placement")
	}
}

func waitCond(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNodeClientErrorPaths unit-tests the node HTTP client's non-happy
// paths directly: missing channels, duplicate imports, and opaque node
// errors must all surface as typed/descriptive errors, not hangs.
func TestNodeClientErrorPaths(t *testing.T) {
	stub := newStubNode(t, "n", 1)
	n := newNode(stub.spec())

	// Export of a channel the node never saw: the "nothing to move"
	// sentinel, which migration treats as an ownership-flip-only move.
	if _, err := n.exportSnapshot("ghost"); err != errNoChannelState {
		t.Fatalf("export of missing channel: %v, want errNoChannelState", err)
	}

	// Import twice: the second PUT is a 409, surfaced with the status.
	if err := n.putSnapshot("dup", strings.NewReader(`{"id":"dup","observed":3}`)); err != nil {
		t.Fatalf("first import: %v", err)
	}
	err := n.putSnapshot("dup", strings.NewReader(`{"id":"dup","observed":3}`))
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("duplicate import: %v, want a 409 error", err)
	}

	// Mismatched snapshot id: the node's 400 guard travels through.
	err = n.putSnapshot("eve", strings.NewReader(`{"id":"mallory","observed":1}`))
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("mismatched import: %v, want a 400 error", err)
	}

	// Detach of a missing channel (404) is success — the desired end
	// state already holds.
	if err := n.deleteChannel("ghost"); err != nil {
		t.Fatalf("detach of missing channel: %v, want nil (404 is the desired state)", err)
	}
}

// brokenNode is a server that answers every request 500 — the shape of a
// node stuck behind a crashed backend.
func brokenServer(t *testing.T) *wiretest.Server {
	t.Helper()
	srv := wiretest.NewServer(t, wire.HandlerFunc(func(w wire.ResponseWriter, r *wire.Request) {
		wire.Error(w, "internal meltdown", http.StatusInternalServerError)
	}))
	return srv
}

func TestNodeClientBrokenNode(t *testing.T) {
	srv := brokenServer(t)
	n := newNode(NodeSpec{Name: "b", URL: srv.URL})

	if _, err := n.exportSnapshot("x"); err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("export from broken node: %v, want a 500 error", err)
	}
	if err := n.putSnapshot("x", strings.NewReader("{}")); err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("import into broken node: %v, want a 500 error", err)
	}
	if err := n.deleteChannel("x"); err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("detach from broken node: %v, want a 500 error", err)
	}
	if err := n.probe(time.Second); err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("probe of broken node: %v, want a 500 error", err)
	}
}

// halfOpenNode is a peer that accepts connections and never answers — the
// shape of a node wedged below its HTTP server (or a black-holing middlebox).
func halfOpenNode(t *testing.T, name string) NodeSpec {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	return NodeSpec{Name: name, URL: "http://" + ln.Addr().String()}
}

// placedOn returns a channel id the ring over the given node names places
// on want.
func placedOn(t *testing.T, want string, names ...string) string {
	t.Helper()
	ring, err := NewRing(names, DefaultReplicas, DefaultLoadFactor)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		id := fmt.Sprintf("ch-%d", i)
		if got, err := ring.PlaceAll([]string{id}); err == nil && got[id] == want {
			return id
		}
	}
	t.Fatalf("no candidate id places on %s", want)
	return ""
}

// own gives the channel a routing entry owned by the named node, as if it
// had streamed there.
func own(t *testing.T, r *Router, id, node string) {
	t.Helper()
	if _, err := r.tbl.ensure(id, func(string) (*Node, error) { return r.byName[node], nil }); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceFromHalfOpenSource: the source of a live migration accepts
// the export request and never answers. Rebalance holds the topology lock
// across that call, so without a deadline it — and every failover queued
// behind it — never returns. With one, the move fails inside the budget and
// ownership stays put.
func TestRebalanceFromHalfOpenSource(t *testing.T) {
	stub := newStubNode(t, "node-a", 1)
	r, err := New(Config{Nodes: []NodeSpec{stub.spec(), halfOpenNode(t, "hung")},
		FailoverWait: 300 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	id := placedOn(t, "node-a", "node-a", "hung")
	own(t, r, id, "hung")

	type result struct {
		rep RebalanceReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := r.Rebalance()
		done <- result{rep, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.rep.Failed != 1 || res.rep.Moved != 0 || len(res.rep.Moves) != 1 || res.rep.Moves[0].Error == "" {
			t.Fatalf("report %+v, want the one move reported failed", res.rep)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Rebalance is wedged on a half-open migration source")
	}
	if owner, _, migrating := r.tbl.get(id).state(); owner.Spec.Name != "hung" || migrating {
		t.Fatalf("after the failed move: owner %s, migrating %v", owner.Spec.Name, migrating)
	}
}

// TestMonitorSurvivesHalfOpenFailoverTarget: the monitor fails a node over
// inline, and the channel's new owner — with a checkpoint to restore onto it
// — accepts the import and never answers. Without a deadline that is the
// health monitor's last act: no more probes, no more failovers, and Close
// hangs. With one, the channel goes cold inside the budget and the monitor
// lives to fail the half-open node over too.
func TestMonitorSurvivesHalfOpenFailoverTarget(t *testing.T) {
	dir := t.TempDir()
	victim := newStubNode(t, "node-a", 1)
	last := newStubNode(t, "node-z", 2)
	vspec := victim.spec()
	vspec.SnapshotDir = dir
	var mu sync.Mutex
	var logs []string
	r, err := New(Config{
		// Sorted by name the monitor probes node-a, then node-h, then node-z:
		// node-a fails over while node-h still counts as alive.
		Nodes:      []NodeSpec{vspec, halfOpenNode(t, "node-h"), last.spec()},
		ProbeEvery: 20 * time.Millisecond, ProbeTimeout: 100 * time.Millisecond, FailAfter: 2,
		FailoverWait: 300 * time.Millisecond,
		Logf: func(format string, args ...interface{}) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	t.Cleanup(func() {
		go func() { r.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Error("Router.Close hangs: the monitor never came back")
		}
	})

	// One channel on the victim, checkpointed, whose canonical owner among
	// the survivors is the half-open node.
	id := placedOn(t, "node-h", "node-h", "node-z")
	own(t, r, id, "node-a")
	file := "chan-" + id + ".snap"
	n, sum, err := snapshot.WriteFileAtomic(filepath.Join(dir, file), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(stubState{ID: id, Observed: 3})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteManifest(dir, manifest.Manifest{Version: snapshot.Version,
		Channels: []manifest.ChannelEntry{{ID: id, File: file, Bytes: n, SHA256: sum}}}); err != nil {
		t.Fatal(err)
	}

	victim.sick.Store(true)
	r.Start()
	waitCond(t, 5*time.Second, "the monitor never failed over the half-open node after the victim", func() bool {
		owner, _, _ := r.tbl.get(id).state()
		return !r.byName["node-a"].Alive() && !r.byName["node-h"].Alive() && owner.Spec.Name == "node-z"
	})
	mu.Lock()
	defer mu.Unlock()
	cold := false
	for _, l := range logs {
		cold = cold || (strings.Contains(l, "failover restore of") && strings.Contains(l, "cold start"))
	}
	if !cold {
		t.Fatalf("the restore onto the half-open node was not reported as a cold start:\n%s", strings.Join(logs, "\n"))
	}
}

// TestRouterMidStreamRejectWithFullWindow: the window is full and the driver
// is inside accept, waiting for a slot, when its upstream dies and the owner
// answers the reconnect with a whole-stream 429. Decisions were already
// delivered, so the pending segments become per-line rejections — which
// empties the window, and the wait for a slot must notice that rather than
// go on waiting for an acknowledgement nothing will send: the line that was
// being accepted is then submitted and answered like any other.
func TestRouterMidStreamRejectWithFullWindow(t *testing.T) {
	var conns atomic.Int32
	kill := make(chan struct{})
	node := wiretest.NewServer(t, wire.HandlerFunc(func(w wire.ResponseWriter, r *wire.Request) {
		if conns.Add(1) > 1 {
			time.Sleep(20 * time.Millisecond) // the reconnect looks healthy first
			w.Header().Set("Retry-After", "1")
			wire.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		// First connection: answer one line, swallow the rest, die on cue.
		sc := bufio.NewScanner(r.Body)
		sc.Scan()
		fmt.Fprintln(w, `{"channel":"full","seq":0,"anomaly":false,"score":1,"exact":true}`)
		w.Flush()
		go io.Copy(io.Discard, r.Body)
		<-kill
		c, _, _ := w.Hijack()
		c.Close()
	}))
	r, err := New(Config{Nodes: []NodeSpec{{Name: "n", URL: node.URL}}, Window: 2,
		FailoverWait: 5 * time.Second, RetryEvery: 10 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	srv := wiretest.NewServer(t, r.Handler())

	s, err := wire.OpenStream(context.Background(), nil, srv.URL+"/channels/full/observe")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	next := func(what string) wire.Decision {
		t.Helper()
		type res struct {
			d   wire.Decision
			err error
		}
		ch := make(chan res, 1)
		go func() {
			var out res
			line, err := s.Next()
			if out.err = err; err == nil {
				out.err = wire.DecodeDecision(line, &out.d)
			}
			ch <- out
		}()
		select {
		case got := <-ch:
			if got.err != nil {
				t.Fatalf("%s: %v", what, got.err)
			}
			return got.d
		case <-time.After(3 * time.Second):
			t.Fatalf("%s never arrived", what)
			return wire.Decision{}
		}
	}
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			s.WriteLine([]byte(obsLine(0.5) + "\n"))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	send(3) // 0 is answered; 1 and 2 fill the window
	if d := next("decision 0"); d.Seq != 0 || !d.Verdict() {
		t.Fatalf("decision 0: %+v", d)
	}
	send(1)                           // 3 parks the driver in accept, waiting for a slot
	time.Sleep(50 * time.Millisecond) // (if it has not got there yet, the main loop takes the same path)
	close(kill)
	for seq := uint64(1); seq <= 3; seq++ {
		if d := next(fmt.Sprintf("decision %d", seq)); d.Seq != seq || !d.Rejected {
			t.Fatalf("decision %d: %+v, want a per-line rejection", seq, d)
		}
	}
	s.CloseSend()
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestJournalTailStopsAtATombstone: a dead node's journal may hold two
// incarnations of one channel id, separated by the tombstone its detach
// journaled. Failover's tail is the last incarnation's alone — never the
// retired one's records, never a splice across the tombstone — and a
// checkpoint older than the tombstone is reported as retired with it.
func TestJournalTailStopsAtATombstone(t *testing.T) {
	dir := t.TempDir()
	j, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	feat := []float64{1, 2}
	for seq := uint64(1); seq <= 7; seq++ {
		act, aud := feat, feat[:1]
		if seq == 4 {
			act, aud = nil, nil // x was detached here, and attached again later
		}
		if err := j.Append("x", seq, act, aud); err != nil {
			t.Fatal(err)
		}
		if seq <= 2 {
			if err := j.Append("y", seq, feat, feat[:1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, r, _ := newTestCluster(t, 1, func(cfg *Config) { cfg.Nodes[0].WALDir = dir })
	orphans := map[string]bool{"x": true, "y": true}
	seqs := func(recs []wal.Record) (out []uint64) {
		for _, rec := range recs {
			if rec.Tombstone() {
				t.Fatalf("tombstone (seq %d) handed to the replay", rec.Seq)
			}
			out = append(out, rec.Seq)
		}
		return out
	}

	// The checkpoint (floor 2) is of x's first incarnation.
	tails, reborn := r.journalTails(r.nodes[0], orphans, map[string]uint64{"x": 2})
	if got := seqs(tails["x"]); !reflect.DeepEqual(got, []uint64{5, 6, 7}) || reborn["x"] != 4 {
		t.Fatalf("x's tail %v after tombstone %d, want [5 6 7] after 4", got, reborn["x"])
	}
	if _, ok := reborn["y"]; ok || !reflect.DeepEqual(seqs(tails["y"]), []uint64{1, 2}) {
		t.Fatalf("y's tail %v (reborn: %v), want [1 2] and no tombstone", seqs(tails["y"]), ok)
	}
	// Replayed cold, from the tombstone, up to what the router relayed.
	if got := seqs(r.replayableTail("x", tails["x"], 6, reborn["x"], false, false)); !reflect.DeepEqual(got, []uint64{5, 6}) {
		t.Fatalf("replayable tail %v, want [5 6]", got)
	}

	// A checkpoint of the second incarnation covers the tombstone: nothing
	// is retired, and the tail continues from the checkpoint's floor.
	tails, reborn = r.journalTails(r.nodes[0], orphans, map[string]uint64{"x": 5})
	if got := seqs(tails["x"]); !reflect.DeepEqual(got, []uint64{6, 7}) || len(reborn) != 0 {
		t.Fatalf("x's tail above floor 5: %v (reborn %v), want [6 7] and none", got, reborn)
	}
}
