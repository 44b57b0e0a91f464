package cluster

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"aovlis/internal/durable"
	"aovlis/internal/serve/loadgen"
	"aovlis/internal/snapshot"
	"aovlis/internal/snapshot/manifest"
	"aovlis/internal/stream/liveplane"
	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// newTestCluster builds n stub nodes and a router over them, served by
// wiretest. The monitor is NOT started — tests that need probing or
// failover drive it explicitly (FailNode) or start it themselves.
func newTestCluster(t *testing.T, n int, mut func(cfg *Config)) ([]*stubNode, *Router, *wiretest.Server) {
	t.Helper()
	stubs := make([]*stubNode, n)
	specs := make([]NodeSpec, n)
	for i := range stubs {
		stubs[i] = newStubNode(t, fmt.Sprintf("node-%d", i), float64(i+1))
		specs[i] = stubs[i].spec()
	}
	cfg := Config{
		Nodes:        specs,
		Window:       8,
		FailoverWait: 5 * time.Second,
		RetryEvery:   10 * time.Millisecond,
		Logf:         t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	srv := wiretest.NewServer(t, r.Handler())
	return stubs, r, srv
}

// observeThrough streams lines to a channel through the router and
// returns the decoded decisions.
func observeThrough(t *testing.T, base, id string, lines []string) []wire.Decision {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/channels/"+id+"/observe",
		strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("observe status %d: %s", resp.StatusCode, b)
	}
	var out []wire.Decision
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, wire.MaxLine)
	for sc.Scan() {
		var d wire.Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad decision line %.200q: %v", sc.Text(), err)
		}
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func obsLine(v float64) string {
	return fmt.Sprintf(`{"action":[%g,0.5],"audience":[0.25]}`, v)
}

// TestRouterAdminEndpoints is the table over the
// admin surface, mirroring the aovlisd handler() factory pattern: every
// route × method pins its status and the load-bearing payload fields.
func TestRouterAdminEndpoints(t *testing.T) {
	stubs, _, srv := newTestCluster(t, 3, nil)
	_ = stubs
	// Route a channel first so /cluster/place has a placed entry to show.
	if decs := observeThrough(t, srv.URL, "seen", []string{obsLine(0.1)}); len(decs) != 1 {
		t.Fatalf("priming stream: got %d decisions", len(decs))
	}

	table := []struct {
		name       string
		method     string
		path       string
		wantStatus int
		wantBody   []string // substrings that must appear
	}{
		{"healthz", http.MethodGet, "/healthz", http.StatusOK,
			[]string{`"status": "ok"`, `"role": "router"`, `"nodes": 3`, `"nodes_alive": 3`}},
		{"metrics", http.MethodGet, "/metrics", http.StatusOK,
			[]string{"aovlisr_segments_total", "aovlisr_node_alive{node=\"node-0\"}", "aovlisr_forward_latency_seconds"}},
		{"metrics wrong method", http.MethodPost, "/metrics", http.StatusMethodNotAllowed, nil},
		{"nodes", http.MethodGet, "/cluster/nodes", http.StatusOK,
			[]string{`"name": "node-0"`, `"name": "node-2"`, `"alive": true`}},
		{"nodes wrong method", http.MethodDelete, "/cluster/nodes", http.StatusMethodNotAllowed, nil},
		{"place placed", http.MethodGet, "/cluster/place?channel=seen", http.StatusOK,
			[]string{`"channel": "seen"`, `"placed": true`, `"epoch": 1`}},
		{"place prediction", http.MethodGet, "/cluster/place?channel=never-streamed", http.StatusOK,
			[]string{`"channel": "never-streamed"`, `"placed": false`}},
		{"place missing param", http.MethodGet, "/cluster/place", http.StatusBadRequest, nil},
		{"place wrong method", http.MethodPost, "/cluster/place?channel=x", http.StatusMethodNotAllowed, nil},
		{"rebalance", http.MethodPost, "/cluster/rebalance", http.StatusOK,
			[]string{`"considered": 1`}},
		{"rebalance wrong method", http.MethodGet, "/cluster/rebalance", http.StatusMethodNotAllowed, nil},
		{"channels aggregate", http.MethodGet, "/channels", http.StatusOK,
			[]string{`"seen"`}},
		{"stats passthrough", http.MethodGet, "/channels/seen/stats", http.StatusOK,
			[]string{`"observed":1`}},
		{"stats unknown", http.MethodGet, "/channels/never-streamed/stats", http.StatusNotFound, nil},
		{"bad channel path", http.MethodGet, "/channels/x", http.StatusNotFound, nil},
		{"unknown verb", http.MethodGet, "/channels/x/bogus", http.StatusNotFound, nil},
		{"observe wrong method", http.MethodGet, "/channels/x/observe", http.StatusMethodNotAllowed, nil},
	}
	for _, tc := range table {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("%s %s: status %d, want %d (body %q)", tc.method, tc.path, resp.StatusCode, tc.wantStatus, body)
			}
			for _, want := range tc.wantBody {
				if !strings.Contains(string(body), want) {
					t.Fatalf("%s %s: body misses %q:\n%s", tc.method, tc.path, want, body)
				}
			}
		})
	}
}

// TestRouterProxyObserve: decisions stream back in order, channel
// placement is sticky, and a malformed observation surfaces as the node's
// per-line error decision (proxied verbatim).
func TestRouterProxyObserve(t *testing.T) {
	stubs, r, srv := newTestCluster(t, 3, nil)
	lines := []string{obsLine(0.1), "not json at all", obsLine(0.3), obsLine(0.4)}
	decs := observeThrough(t, srv.URL, "alice", lines)
	if len(decs) != len(lines) {
		t.Fatalf("got %d decisions for %d lines", len(decs), len(lines))
	}
	owner := -1
	for i, d := range decs {
		if d.Channel != "alice" || d.Seq != uint64(i) {
			t.Fatalf("decision %d misrouted: %+v", i, d)
		}
		if i == 1 {
			if d.Error == "" {
				t.Fatalf("malformed line %d scored instead of erroring: %+v", i, d)
			}
			continue
		}
		if d.Error != "" {
			t.Fatalf("line %d errored: %v", i, d.Error)
		}
		if owner == -1 {
			owner = scoreNode(d.Score)
		} else if scoreNode(d.Score) != owner {
			t.Fatalf("channel hopped nodes mid-stream: decision %d from node %d, want %d", i, scoreNode(d.Score), owner)
		}
	}
	// Exactly one stub holds the channel, and it is the ring's owner.
	holders := 0
	for _, s := range stubs {
		if s.hasChannel("alice") {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("%d stubs hold the channel, want exactly 1", holders)
	}
	e := r.tbl.get("alice")
	if e == nil {
		t.Fatal("no routing entry after stream")
	}
	own, _, _ := e.state()
	if !stubs[owner-1].hasChannel("alice") || own.Spec.Name != stubs[owner-1].name {
		t.Fatalf("routing table owner %s disagrees with scoring node %d", own.Spec.Name, owner)
	}

	// A second stream on the same channel continues the same node's
	// lifetime counter — placement is sticky.
	decs2 := observeThrough(t, srv.URL, "alice", []string{obsLine(0.5)})
	if scoreNode(decs2[0].Score) != owner || scorePos(decs2[0].Score) != 4 {
		t.Fatalf("second stream broke stickiness/continuity: %+v", decs2[0])
	}
}

// TestRouterEscapesChannelIDs: a channel id that needs escaping in a path
// reaches the node as the client's exact id on every route the router
// forwards — observe, stats, the /live upgrade and a rebalance move's
// export, import and detach. Pasted unescaped, "a%41" would land on the
// node as "aA", and "a?b" would cut the path short and 404.
func TestRouterEscapesChannelIDs(t *testing.T) {
	stubs, r, srv := newTestCluster(t, 2, nil)
	holder := func(id string) *stubNode {
		t.Helper()
		var held []*stubNode
		for _, s := range stubs {
			if s.hasChannel(id) {
				held = append(held, s)
			}
		}
		if len(held) != 1 {
			t.Fatalf("channel %q held by %d stubs, want 1", id, len(held))
		}
		return held[0]
	}
	for _, id := range []string{"a%41", "a?b", "a b", "a#b"} {
		esc := url.PathEscape(id)
		for i, d := range observeThrough(t, srv.URL, esc, []string{obsLine(0.1), obsLine(0.2)}) {
			if d.Channel != id || d.Seq != uint64(i) || d.Error != "" {
				t.Fatalf("channel %q decision %d: %+v", id, i, d)
			}
		}
		from := holder(id)

		resp, err := http.Get(srv.URL + "/channels/" + esc + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st stubState
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || st.ID != id || st.Observed != 2 {
			t.Fatalf("channel %q stats: status %d, %+v, %v", id, resp.StatusCode, st, err)
		}

		conn, _, err := liveplane.Dial(srv.URL+"/live/"+esc, nil)
		if err != nil {
			t.Fatalf("channel %q live dial: %v", id, err)
		}
		if err := conn.WriteMessage(liveplane.OpText, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, msg, err := conn.ReadMessage()
		conn.Close()
		if want := from.name + ":" + id + ":ping"; err != nil || string(msg) != want {
			t.Fatalf("channel %q live echo %q (%v), want %q", id, msg, err, want)
		}

		to := r.byName[stubs[0].name]
		if from == stubs[0] {
			to = r.byName[stubs[1].name]
		}
		if mv := r.moveChannel(r.tbl.get(id), to); mv.Error != "" {
			t.Fatalf("channel %q move: %s", id, mv.Error)
		}
		if got := holder(id); got.name != to.Spec.Name || got.observedCount(id) != 2 {
			t.Fatalf("channel %q after the move: on %s with %d observed, want %s with 2", id, got.name, got.observedCount(id), to.Spec.Name)
		}
	}
}

// TestRouter429Relay: a node in admission reject answers the whole stream
// 429; the router must relay the status AND the node's Retry-After
// upstream (satellite 1), and a backoff-aware loadgen client must recover
// once the node readmits.
func TestRouter429Relay(t *testing.T) {
	stubs, _, srv := newTestCluster(t, 1, nil)
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
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After %q not relayed from node (want %q)", ra, "7")
	}
}

// TestRouterBackoffReplay closes the admission-control loop end to end
// (satellite 1): the node rejects with 429 + Retry-After, the router
// relays it, and a Backoff-enabled loadgen.HTTPReplay honors the hint,
// reopens and resends — every offered segment eventually scores once the
// node readmits.
func TestRouterBackoffReplay(t *testing.T) {
	stubs, _, srv := newTestCluster(t, 1, nil)
	stubs[0].retryAfter.Store(1)
	stubs[0].reject.Store(true)
	go func() {
		time.Sleep(400 * time.Millisecond)
		stubs[0].reject.Store(false)
	}()

	sched, err := loadgen.New(loadgen.Config{
		Shape: loadgen.Steady, Seed: 11, Duration: 200 * time.Millisecond,
		BaseRate: 60, Channels: 2, ActionDim: 2, AudienceDim: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Arrivals) == 0 {
		t.Fatal("degenerate schedule")
	}
	h := loadgen.HTTPReplay{BaseURL: srv.URL, Backoff: true, MaxRetries: 4, Window: 4}
	res, err := h.Run(sched)
	if err != nil {
		t.Fatalf("replay failed despite backoff: %v (result %+v)", err, res)
	}
	if res.Retried == 0 || res.Backoff == 0 {
		t.Fatalf("client never honored a Retry-After: %+v", res)
	}
	if res.Decisions != res.Sent || res.Verdicts != res.Sent {
		t.Fatalf("lost or degraded segments across backoff: %+v", res)
	}
}

// TestRouterRebalance: after channels land unevenly, POST
// /cluster/rebalance converges ownership to the canonical placement with
// state carried along, while an open stream keeps flowing without losing
// a segment or breaking seq order.
func TestRouterRebalance(t *testing.T) {
	stubs, r, srv := newTestCluster(t, 3, nil)
	// Stream 12 channels; incremental placement may differ from canonical.
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("ch-%d", i)
		if decs := observeThrough(t, srv.URL, id, []string{obsLine(0.1), obsLine(0.2)}); len(decs) != 2 {
			t.Fatalf("channel %s: %d decisions", id, len(decs))
		}
	}
	rep, err := r.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("rebalance failed moves: %+v", rep)
	}
	// Ownership now matches the canonical pure-function placement.
	ids := make([]string, 12)
	for i := range ids {
		ids[i] = fmt.Sprintf("ch-%d", i)
	}
	want, err := r.ring.Load().PlaceAll(ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		e := r.tbl.get(id)
		owner, _, _ := e.state()
		if owner.Spec.Name != want[id] {
			t.Fatalf("channel %s on %s after rebalance, canonical is %s", id, owner.Spec.Name, want[id])
		}
		// State travelled: exactly one stub holds the channel, with the
		// full lifetime counter.
		holders := 0
		for _, s := range stubs {
			if s.hasChannel(id) {
				holders++
				if got := s.observedCount(id); got != 2 {
					t.Fatalf("channel %s lost its counter in migration: observed %d, want 2", id, got)
				}
				if s.name != want[id] {
					t.Fatalf("channel %s state lives on %s, canonical is %s", id, s.name, want[id])
				}
			}
		}
		if holders != 1 {
			t.Fatalf("channel %s held by %d stubs after rebalance", id, holders)
		}
	}
	// Continuity across a migration for a live channel: stream again and
	// the counter keeps rising from 2 wherever the channel now lives.
	for _, id := range []string{"ch-0", "ch-7"} {
		decs := observeThrough(t, srv.URL, id, []string{obsLine(0.9)})
		if scorePos(decs[0].Score) != 3 {
			t.Fatalf("channel %s counter reset across migration: %+v", id, decs[0])
		}
	}
}

// TestRouterRebalanceSurfacesImportStatus: when the target node refuses a
// snapshot import (413 from the daemon's upload cap), the move fails once
// with the node's status in the report — no retry — and the channel stays,
// state and ownership, where it was.
func TestRouterRebalanceSurfacesImportStatus(t *testing.T) {
	stubs, r, srv := newTestCluster(t, 3, nil)
	owners := map[string]string{}
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("ch-%d", i)
		observeThrough(t, srv.URL, id, []string{obsLine(0.1), obsLine(0.2)})
		owner, _, _ := r.tbl.get(id).state()
		owners[id] = owner.Spec.Name
	}
	for _, s := range stubs {
		s.putStatus.Store(http.StatusRequestEntityTooLarge)
	}
	rep, err := r.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.Moved != 0 {
		t.Fatalf("rebalance against refusing nodes: %+v, want only failed moves", rep)
	}
	puts := 0
	for _, s := range stubs {
		puts += int(s.puts.Load())
	}
	if puts != rep.Failed {
		t.Fatalf("%d import attempts for %d failed moves, want one each", puts, rep.Failed)
	}
	for _, mv := range rep.Moves {
		if !strings.Contains(mv.Error, "413") {
			t.Fatalf("move %+v does not carry the node's 413", mv)
		}
		owner, _, _ := r.tbl.get(mv.Channel).state()
		if owner.Spec.Name != owners[mv.Channel] || owner.Spec.Name != mv.From {
			t.Fatalf("channel %s owned by %s after a refused move from %s", mv.Channel, owner.Spec.Name, owners[mv.Channel])
		}
		decs := observeThrough(t, srv.URL, mv.Channel, []string{obsLine(0.9)})
		if scorePos(decs[0].Score) != 3 {
			t.Fatalf("channel %s lost its state in a refused move: %+v", mv.Channel, decs[0])
		}
	}
}

// TestRouterMidStreamRebalance: a stream that is mid-flight while its
// channel migrates must not lose or reorder a single segment — the drain
// protocol parks it, the flip rotates its connection, seqs stay
// contiguous.
func TestRouterMidStreamRebalance(t *testing.T) {
	stubs, r, srv := newTestCluster(t, 2, nil)
	const total = 60

	pr, pw := io.Pipe()
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/channels/live/observe", pr)
	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			pr.CloseWithError(err)
			close(respCh)
			return
		}
		respCh <- resp
	}()

	// Feed slowly so the stream straddles the forced moves.
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer pw.Close()
		for i := 0; i < total; i++ {
			if _, err := io.WriteString(pw, obsLine(float64(i)/100)+"\n"); err != nil {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Force the channel back and forth between the two nodes while the
	// stream runs.
	for flip := 0; flip < 4; flip++ {
		time.Sleep(20 * time.Millisecond)
		e := r.tbl.get("live")
		if e == nil {
			continue
		}
		owner, _, _ := e.state()
		var to *Node
		for _, n := range r.nodes {
			if n != owner {
				to = n
			}
		}
		if mv := r.moveChannel(e, to); mv.Error != "" {
			t.Fatalf("forced move %d: %+v", flip, mv)
		}
	}
	<-done

	resp, ok := <-respCh
	if !ok {
		t.Fatal("no response")
	}
	defer resp.Body.Close()
	var decs []wire.Decision
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var d wire.Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad decision %q: %v", sc.Text(), err)
		}
		decs = append(decs, d)
	}
	if len(decs) != total {
		t.Fatalf("segment loss across migrations: %d decisions for %d lines", len(decs), total)
	}
	positions := map[int]bool{}
	for i, d := range decs {
		if d.Seq != uint64(i) {
			t.Fatalf("decision %d has seq %d — reordered or rewritten wrong", i, d.Seq)
		}
		if d.Error != "" {
			t.Fatalf("decision %d errored: %s", i, d.Error)
		}
		// Lifetime positions 1..total each appear exactly once: the counter
		// travelled with every migration and no segment was double-scored.
		pos := scorePos(d.Score)
		if positions[pos] {
			t.Fatalf("lifetime position %d scored twice — state forked", pos)
		}
		positions[pos] = true
	}
	for want := 1; want <= total; want++ {
		if !positions[want] {
			t.Fatalf("lifetime position %d never scored — a segment vanished", want)
		}
	}
	// Both nodes must have scored some of the stream (the moves really
	// happened mid-flight).
	nodesSeen := map[int]bool{}
	for _, d := range decs {
		nodesSeen[scoreNode(d.Score)] = true
	}
	if len(nodesSeen) < 2 {
		t.Fatalf("stream never actually moved: nodes seen %v", nodesSeen)
	}
	_ = stubs
}

// TestRouterFailover: kill a node; the monitor declares it dead, its
// channels re-place onto survivors, and channels with a checkpoint in the
// dead node's shared snapshot dir restore warm (counter intact) while the
// rest cold-start.
func TestRouterFailover(t *testing.T) {
	dir := t.TempDir()
	stubs := make([]*stubNode, 3)
	specs := make([]NodeSpec, 3)
	for i := range stubs {
		stubs[i] = newStubNode(t, fmt.Sprintf("node-%d", i), float64(i+1))
		specs[i] = stubs[i].spec()
	}
	cfg := Config{
		Nodes:        specs,
		Window:       8,
		ProbeEvery:   20 * time.Millisecond,
		ProbeTimeout: 200 * time.Millisecond,
		FailAfter:    2,
		FailoverWait: 5 * time.Second,
		RetryEvery:   10 * time.Millisecond,
		Logf:         t.Logf,
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	srv := wiretest.NewServer(t, r.Handler())

	// Stream enough channels that the victim owns several.
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("ch-%d", i)
		observeThrough(t, srv.URL, id, []string{obsLine(0.1), obsLine(0.2), obsLine(0.3)})
	}
	victim := r.nodes[0]
	var victimStub *stubNode
	for _, s := range stubs {
		if s.name == victim.Spec.Name {
			victimStub = s
		}
	}
	var owned []string
	for id, e := range r.tbl.snapshot() {
		if o, _, _ := e.state(); o == victim {
			owned = append(owned, id)
		}
	}
	if len(owned) == 0 {
		t.Fatal("victim owns nothing; placement degenerate")
	}

	// Fabricate the victim's shared-dir checkpoint for all but one of its
	// channels (the odd one out must cold-start).
	victim.Spec.SnapshotDir = dir
	var entries []manifest.ChannelEntry
	warm := owned[:len(owned)-1]
	cold := owned[len(owned)-1]
	for _, id := range warm {
		entries = append(entries, commitStubCheckpoint(t, dir, stubState{ID: id, Observed: victimStub.observedCount(id)}))
	}
	if err := manifest.Write(dir, manifest.Manifest{Version: snapshot.Version, Channels: entries}); err != nil {
		t.Fatal(err)
	}

	// Kill the node and let the monitor find out.
	victimStub.srv.Close()
	r.Start()
	// The monitor marks the node dead, then FailNode re-places its
	// channels; poll for the end state, not the intermediate flag.
	deadline := time.Now().Add(5 * time.Second)
	for {
		orphans := 0
		for _, id := range owned {
			if o, _, _ := r.tbl.get(id).state(); o == victim {
				orphans++
			}
		}
		if !victim.Alive() && orphans == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover incomplete: alive=%v, %d channels still on the dead node", victim.Alive(), orphans)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range warm {
		decs := observeThrough(t, srv.URL, id, []string{obsLine(0.7)})
		if got := scorePos(decs[0].Score); got != 4 {
			t.Fatalf("warm channel %s lost its counter in failover: next position %d, want 4", id, got)
		}
	}
	decs := observeThrough(t, srv.URL, cold, []string{obsLine(0.7)})
	if got := scorePos(decs[0].Score); got != 1 {
		t.Fatalf("cold channel %s should restart at 1, got %d", cold, got)
	}

	// /cluster/nodes reflects the death.
	resp, err := http.Get(srv.URL + "/cluster/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var rows []nodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadRows := 0
	for _, row := range rows {
		if !row.Alive {
			deadRows++
			if row.Name != victim.Spec.Name {
				t.Fatalf("wrong node reported dead: %+v", row)
			}
		}
	}
	if deadRows != 1 {
		t.Fatalf("%d dead rows, want 1", deadRows)
	}
	_ = os.Remove
}

// TestRouterWindowOfLargeLines pushes two full windows of ≈ 256 KiB
// observations, each answered by a ≈ 256 KiB decision, through the proxy,
// over router↔node connections whose socket buffers are clamped to 64 KiB so
// the kernel cannot hide the coupling. The driver then parks in its upstream
// socket write (the node is not reading) while the node parks writing
// decisions (the router is not reading); only a relay deep enough to take a
// whole window of acknowledgements off the node without the driver gets both
// moving again — the depth openUpstream passes. A two-buffer relay hangs
// here, so the stream runs under a deadline that cuts its connections.
func TestRouterWindowOfLargeLines(t *testing.T) {
	const window, size, sockBuf = 8, 256 << 10, 64 << 10
	clamp := func(c wire.Conn) {
		rc, err := c.(syscall.Conn).SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		rc.Control(func(fd uintptr) {
			syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, sockBuf)
			syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF, sockBuf)
		})
	}
	stub := newStubNodeOn(t, "node-0", 1, func(ln wire.Listener) wire.Listener { return clampListener{ln, clamp} })
	stub.padPath.Store(size)
	r, err := New(Config{Nodes: []NodeSpec{stub.spec()}, Window: window, FailoverWait: 5 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	// Upstream streams dial through r.dial; the count below proves the clamp
	// reached them, or the test would pass without the coupling it exists for.
	var dials atomic.Int32
	r.dial = func(ctx context.Context, network, addr string) (wire.Conn, error) {
		dials.Add(1)
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		clamp(c)
		return c, nil
	}
	srv := wiretest.NewServer(t, r.Handler())

	line := `{"action":[0.5` + strings.Repeat(",0.125", size/6) + `],"audience":[0.25]}`
	lines := make([]string, 2*window)
	for i := range lines {
		lines[i] = line
	}
	deadline := time.AfterFunc(60*time.Second, func() {
		t.Error("a window of large lines never completed: driver and node are parked on each other")
		srv.CloseClientConnections() // fails the stream below
	})
	defer deadline.Stop()
	decs := observeThrough(t, srv.URL, "wide", lines)
	if dials.Load() == 0 {
		t.Fatal("the upstream never dialed through the clamped seam")
	}
	if len(decs) != len(lines) {
		t.Fatalf("%d decisions for %d lines", len(decs), len(lines))
	}
	for i, d := range decs {
		if d.Seq != uint64(i) || d.Error != "" || len(d.Path) != size || scorePos(d.Score) != i+1 {
			t.Fatalf("decision %d: seq %d error %q path %d bytes score %v", i, d.Seq, d.Error, len(d.Path), d.Score)
		}
	}
}

// clampListener applies clamp to every connection it accepts.
type clampListener struct {
	wire.Listener
	clamp func(wire.Conn)
}

func (l clampListener) Accept() (wire.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.clamp(c)
	}
	return c, err
}

// commitStubCheckpoint commits st as a stub node's checkpoint file for its
// channel in dir and returns the manifest entry naming it.
func commitStubCheckpoint(t *testing.T, dir string, st stubState) manifest.ChannelEntry {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	file := "chan-" + st.ID + ".snap"
	if err := durable.Commit(filepath.Join(dir, file), b); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return manifest.ChannelEntry{ID: st.ID, File: file, Bytes: int64(len(b)), SHA256: hex.EncodeToString(sum[:])}
}
