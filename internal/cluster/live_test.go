package cluster

// Router live-plane tests (ISSUE 10): the /live/{channel} hijack tunnel
// and the /watch SSE fan-in, pinned against stub nodes whose live
// endpoints echo enough identity (node name, channel id, resume floor)
// to prove placement, header passthrough, and refusal relay. The real
// daemon's resume/bit-equality contract through a live socket is pinned
// by the cmd/aovlisd conformance suite; these tests pin the router's own
// forwarding logic.

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"aovlis/internal/stream/liveplane"
	"aovlis/internal/wire"
)

// handleLive is the stub's live endpoint: an RFC 6455 echo that tags
// every reply "{node}:{channel}:{payload}" so a test reading through the
// router can prove exactly which node terminated the tunnel. The resume
// floor echoes the client's Last-Seq, pinning request-header passthrough;
// the reject flag answers 409 + floor, pinning refusal relay.
func (s *stubNode) handleLive(w wire.ResponseWriter, r *wire.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/live/")
	if s.reject.Load() {
		w.Header().Set(wire.ResumeHeader, "0")
		wire.Error(w, "stream busy", http.StatusConflict)
		return
	}
	hdr := wire.Header{}
	floor := r.Header.Get(wire.LastSeqHeader)
	if floor == "" {
		floor = "0"
	}
	hdr.Set(wire.ResumeHeader, floor)
	conn, err := liveplane.Upgrade(w, r, &liveplane.Options{Header: hdr})
	if err != nil {
		return
	}
	defer conn.Close()
	s.mu.Lock()
	if s.channels[id] == nil {
		s.channels[id] = &stubChannel{}
	}
	s.mu.Unlock()
	for {
		op, msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		if op != liveplane.OpText {
			continue
		}
		reply := fmt.Sprintf("%s:%s:%s", s.name, id, msg)
		if err := conn.WriteMessage(liveplane.OpText, []byte(reply)); err != nil {
			return
		}
	}
}

// handleWatch is the stub's SSE endpoint: it replays the fixture events
// with node-local ids 1..n, then holds the stream open until the client
// goes away (or returns immediately when watchEnd is set, so tests can
// drive the fan-in's all-upstreams-closed path).
func (s *stubNode) handleWatch(w wire.ResponseWriter, r *wire.Request) {
	s.watchQuery.Store(r.URL.RawQuery)
	w.Header().Set("Content-Type", "text/event-stream")
	fmt.Fprintf(w, ": stub stream\n\n")
	s.mu.Lock()
	events := append([]string(nil), s.watch...)
	s.mu.Unlock()
	for i, data := range events {
		fmt.Fprintf(w, "id: %d\nevent: verdict\ndata: %s\n\n", i+1, data)
	}
	w.Flush()
	if s.watchEnd.Load() {
		return
	}
	<-r.Context().Done()
}

func (s *stubNode) setWatch(events ...string) {
	s.mu.Lock()
	s.watch = events
	s.mu.Unlock()
}

// sseEvent is one parsed fan-in event.
type sseEvent struct {
	id   string
	data string
}

// readSSE consumes the fan-in stream until want events arrived (or the
// stream ended), parsing id/data lines and ignoring comments.
func readSSE(t *testing.T, body *bufio.Scanner, want int) []sseEvent {
	t.Helper()
	var (
		out []sseEvent
		cur sseEvent
	)
	for len(out) < want && body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			if cur.data != "" {
				out = append(out, cur)
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "id: "):
			cur.id = line[len("id: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		}
	}
	return out
}

func TestRouterLiveTunnel(t *testing.T) {
	stubs, r, srv := newTestCluster(t, 2, nil)

	owners := map[string]bool{}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("live-%d", i)
		hdr := wire.Header{}
		hdr.Set(wire.LastSeqHeader, "3")
		conn, resp, err := liveplane.Dial(srv.URL+"/live/"+id, hdr)
		if err != nil {
			t.Fatalf("dial %s through router: %v", id, err)
		}
		if got := resp.Header.Get(wire.ResumeHeader); got != "3" {
			t.Fatalf("channel %s: resume floor %q did not travel the tunnel, want %q", id, got, "3")
		}
		if err := conn.WriteMessage(liveplane.OpText, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		op, msg, err := conn.ReadMessage()
		if err != nil || op != liveplane.OpText {
			t.Fatalf("echo read: op %d err %v", op, err)
		}
		e := r.tbl.get(id)
		if e == nil {
			t.Fatalf("tunnel for %s left no routing entry", id)
		}
		owner, _, _ := e.state()
		want := fmt.Sprintf("%s:%s:ping", owner.Spec.Name, id)
		if string(msg) != want {
			t.Fatalf("echo %q, want %q — tunnel landed on the wrong node", msg, want)
		}
		owners[owner.Spec.Name] = true
		conn.Close()
	}
	if len(owners) != 2 {
		t.Errorf("6 channels landed on %d node(s), bounded-load placement should use both", len(owners))
	}
	for _, s := range stubs {
		found := false
		for i := 0; i < 6; i++ {
			if s.hasChannel(fmt.Sprintf("live-%d", i)) {
				found = true
			}
		}
		if !found {
			t.Errorf("node %s terminated no tunnels", s.name)
		}
	}
}

func TestRouterLiveRefusalRelay(t *testing.T) {
	stubs, _, srv := newTestCluster(t, 2, nil)
	for _, s := range stubs {
		s.reject.Store(true)
	}
	_, resp, err := liveplane.Dial(srv.URL+"/live/refused", nil)
	if err == nil {
		t.Fatal("dial succeeded against a rejecting owner")
	}
	if resp == nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("refusal status = %v, want 409 relayed verbatim", resp)
	}
	if got := resp.Header.Get(wire.ResumeHeader); got != "0" {
		t.Fatalf("refusal resume floor %q, want %q", got, "0")
	}
}

func TestRouterLiveBadRequests(t *testing.T) {
	_, _, srv := newTestCluster(t, 1, nil)
	cases := []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/live/", http.StatusNotFound},
		{http.MethodGet, "/live/a/b", http.StatusNotFound},
		{http.MethodPost, "/live/a", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestRouterWatchFanIn(t *testing.T) {
	stubs, _, srv := newTestCluster(t, 2, nil)
	stubs[0].setWatch(`{"channel":"a","seq":1}`, `{"channel":"a","seq":2}`)
	stubs[1].setWatch(`{"channel":"b","seq":1}`)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/watch?channel=a", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, bufio.NewScanner(resp.Body), 3)
	cancel()
	if len(events) != 3 {
		t.Fatalf("merged %d events, want 3", len(events))
	}
	byID := map[string]string{}
	for _, ev := range events {
		byID[ev.id] = ev.data
	}
	// Ids are namespaced per node: both nodes' local "1" coexist.
	for id, data := range map[string]string{
		"node-0-1": `{"channel":"a","seq":1}`,
		"node-0-2": `{"channel":"a","seq":2}`,
		"node-1-1": `{"channel":"b","seq":1}`,
	} {
		if byID[id] != data {
			t.Errorf("event %s = %q, want %q (merged set: %v)", id, byID[id], data, byID)
		}
	}
	for _, s := range stubs {
		if q, _ := s.watchQuery.Load().(string); q != "channel=a" {
			t.Errorf("node %s saw query %q, want the filter passed through", s.name, q)
		}
	}
}

func TestRouterWatchSkipsDeadNodes(t *testing.T) {
	stubs, r, srv := newTestCluster(t, 2, nil)
	stubs[0].setWatch(`{"channel":"a","seq":1}`)
	stubs[1].setWatch(`{"channel":"b","seq":1}`)
	r.byName["node-1"].alive.Store(false)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, bufio.NewScanner(resp.Body), 1)
	cancel()
	if len(events) != 1 || events[0].id != "node-0-1" {
		t.Fatalf("fan-in over a half-dead fleet returned %v, want only node-0's event", events)
	}
}

func TestRouterWatchEndsWhenUpstreamsClose(t *testing.T) {
	stubs, _, srv := newTestCluster(t, 2, nil)
	for i, s := range stubs {
		s.setWatch(fmt.Sprintf(`{"channel":"c%d","seq":1}`, i))
		s.watchEnd.Store(true)
	}
	resp, err := http.Get(srv.URL + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read to EOF: the fan-in must terminate once every upstream ended,
	// not hold a silent stream open forever.
	sc := bufio.NewScanner(resp.Body)
	events := readSSE(t, sc, 1<<30)
	if len(events) != 2 {
		t.Fatalf("drained %d events before close, want 2", len(events))
	}
}
