package liveplane

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// verdict is the decision a ring test appends under seq; its score is the
// seq, so a replayed line names what it carries.
func verdict(seq uint64) *wire.Decision {
	return &wire.Decision{Channel: "ch", Seq: seq, Score: float64(seq), Exact: true, Path: "exact"}
}

// replayedSeq decodes a replayed line and checks it is verdict(seq)'s.
func replayedSeq(t *testing.T, seq uint64, line []byte) string {
	t.Helper()
	var d wire.Decision
	if err := wire.DecodeDecision(line, &d); err != nil || d.Seq != seq || d.Score != float64(seq) {
		t.Errorf("seq %d replayed as %q (%v)", seq, line, err)
	}
	return fmt.Sprint(seq)
}

func TestHubAcquireExclusive(t *testing.T) {
	h := NewHub(HubConfig{})
	s1, err := h.Acquire("ch-0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Acquire("ch-0"); !errors.Is(err, ErrChannelBusy) {
		t.Fatalf("second acquire = %v, want ErrChannelBusy", err)
	}
	if _, err := h.Acquire("ch-1"); err != nil {
		t.Fatalf("unrelated channel blocked: %v", err)
	}
	s1.Release()
	s2, err := h.Acquire("ch-0")
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	s2.Release()
	h.Close()
	if _, err := h.Acquire("ch-0"); !errors.Is(err, ErrHubClosed) {
		t.Fatalf("acquire after close = %v, want ErrHubClosed", err)
	}
}

// closeCounter is a bound connection that counts its closes.
type closeCounter struct{ n int }

func (c *closeCounter) Close() error { c.n++; return nil }

// TestHubForget: forgetting a channel drops its ring and floor and cuts the
// session bound to it, so the next session starts a fresh channel.
func TestHubForget(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	s, err := h.Acquire("ch")
	if err != nil {
		t.Fatal(err)
	}
	conn := &closeCounter{}
	s.Bind(conn)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.Append(verdict(seq)); err != nil {
			t.Fatal(err)
		}
	}
	h.Forget("ch")
	h.Forget("never-seen")
	if conn.n != 1 {
		t.Fatalf("bound connection closed %d times, want 1", conn.n)
	}
	if got := h.ChannelFloor("ch"); got != 0 {
		t.Fatalf("floor %d after Forget, want 0", got)
	}
	s.Release() // the cut session unwinding must not disturb the next one

	s2, err := h.Acquire("ch")
	if err != nil {
		t.Fatalf("acquire after Forget: %v", err)
	}
	defer s2.Release()
	if err := s2.Replay(0, func(seq uint64, _ []byte) error {
		return fmt.Errorf("replayed seq %d of the forgotten incarnation", seq)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Append(verdict(1)); err != nil {
		t.Fatalf("a fresh channel's first decision: %v", err)
	}
}

func TestSessionRingReplay(t *testing.T) {
	h := NewHub(HubConfig{RingCap: 4})
	s, err := h.Acquire("ch-0")
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 6; seq++ {
		if err := s.Append(verdict(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(verdict(6)); err == nil {
		t.Fatal("non-monotonic append accepted")
	}
	if got := s.Last(); got != 6 {
		t.Fatalf("Last = %d, want 6", got)
	}
	if got := h.ChannelFloor("ch-0"); got != 6 {
		t.Fatalf("ChannelFloor = %d, want 6", got)
	}
	// RingCap 4 retains seqs 3..6; replay after 4 yields 5, 6.
	var got []string
	if err := s.Replay(4, func(seq uint64, p []byte) error {
		got = append(got, replayedSeq(t, seq, p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "5,6" {
		t.Fatalf("replay after 4 = %v", got)
	}
	got = got[:0]
	if err := s.Replay(0, func(seq uint64, p []byte) error {
		got = append(got, fmt.Sprintf("%d", seq))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Evicted decisions (1, 2) are gone — the WAL floor covers them.
	if strings.Join(got, ",") != "3,4,5,6" {
		t.Fatalf("replay after 0 = %v (ring should retain newest 4)", got)
	}
	wantErr := errors.New("sink broke")
	if err := s.Replay(0, func(uint64, []byte) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("replay error not propagated: %v", err)
	}
}

// TestSessionRingWrapAround walks a RingCap 3 ring through every head
// position: whatever was overwritten in place, Replay yields exactly the
// newest three decisions above `after`, oldest first.
func TestSessionRingWrapAround(t *testing.T) {
	for _, tc := range []struct {
		appended, after uint64
		want            string
	}{
		{appended: 0, after: 0, want: ""},
		{appended: 2, after: 0, want: "1,2"},
		{appended: 3, after: 0, want: "1,2,3"},
		{appended: 4, after: 0, want: "2,3,4"}, // head 1
		{appended: 5, after: 3, want: "4,5"},   // head 2, filter splits the older part
		{appended: 6, after: 0, want: "4,5,6"}, // head back at 0
		{appended: 7, after: 5, want: "6,7"},   // second lap
		{appended: 8, after: 8, want: ""},
		{appended: 8, after: 2, want: "6,7,8"}, // after below the retained floor
	} {
		h := NewHub(HubConfig{RingCap: 3})
		s, err := h.Acquire("ch")
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= tc.appended; seq++ {
			if err := s.Append(verdict(seq)); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		if err := s.Replay(tc.after, func(seq uint64, p []byte) error {
			got = append(got, replayedSeq(t, seq, p))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, ",") != tc.want {
			t.Errorf("%d appended, replay after %d = %v, want %s", tc.appended, tc.after, got, tc.want)
		}
	}
}

// watchStream opens a /watch SSE connection and returns a line-reader plus
// a cancel. ServeWatch flushes its headers only after the subscription is
// registered, so once this returns, published events cannot be missed.
func watchStream(t *testing.T, srv *wiretest.Server, extra string, hdr http.Header) (*bufio.Reader, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/watch"+extra, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cancel(); resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type %q", ct)
	}
	return bufio.NewReader(resp.Body), cancel
}

// readEvent parses one SSE event (id + event + data) from the stream.
func readEvent(t *testing.T, br *bufio.Reader) (id, event, data string) {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v (got id=%q event=%q data=%q)", err, id, event, data)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && data != "":
			return id, event, data
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
}

func TestServeWatchSSE(t *testing.T) {
	h := NewHub(HubConfig{})
	srv := wiretest.NewServer(t, wire.HandlerFunc(h.ServeWatch))
	defer h.Close() // before srv.Close (LIFO): ends the SSE handlers it waits on

	h.Publish("ch-0", []byte(`{"n":1}`))
	h.Publish("ch-1", []byte(`{"n":2}`))

	br, cancel := watchStream(t, srv, "", nil)
	// Events published before the subscribe replay from the watch ring.
	for i, want := range []struct{ id, data string }{{"1", `{"n":1}`}, {"2", `{"n":2}`}} {
		id, event, data := readEvent(t, br)
		if event != "verdict" || id != want.id || data != want.data {
			t.Fatalf("replayed event %d = (%s, %s, %s), want (%s, verdict, %s)", i, id, event, data, want.id, want.data)
		}
	}
	// A live event flows through the subscription.
	h.Publish("ch-0", []byte(`{"n":3}`))
	if id, _, data := readEvent(t, br); id != "3" || data != `{"n":3}` {
		t.Fatalf("live event = (%s, %s)", id, data)
	}
	cancel()
}

// TestServeWatchClientGoneUnsubscribes: a dashboard that disconnects is
// unsubscribed as soon as it goes — the serving loop's background read sees
// the close and cancels the request — not when the next event is published.
func TestServeWatchClientGoneUnsubscribes(t *testing.T) {
	h := NewHub(HubConfig{})
	srv := wiretest.NewServer(t, wire.HandlerFunc(h.ServeWatch))
	defer h.Close()
	_, cancel := watchStream(t, srv, "", nil)
	if n := h.Watchers(); n != 1 {
		t.Fatalf("%d subscribers with one dashboard connected", n)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for h.Watchers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("a disconnected dashboard is still subscribed while no event is published")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeWatchLastEventIDReconnect(t *testing.T) {
	h := NewHub(HubConfig{})
	srv := wiretest.NewServer(t, wire.HandlerFunc(h.ServeWatch))
	defer h.Close()

	for i := 1; i <= 5; i++ {
		h.Publish("ch-0", []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	// First connection consumes events 1..5, then "drops".
	br, cancel := watchStream(t, srv, "", nil)
	var last string
	for i := 0; i < 5; i++ {
		last, _, _ = readEvent(t, br)
	}
	if last != "5" {
		t.Fatalf("first connection ended at id %s, want 5", last)
	}
	cancel()

	// Two more events land while disconnected.
	h.Publish("ch-0", []byte(`{"n":6}`))
	h.Publish("ch-0", []byte(`{"n":7}`))

	// Reconnect with Last-Event-ID: only the gap replays.
	br2, _ := watchStream(t, srv, "", http.Header{"Last-Event-ID": []string{last}})
	for _, want := range []string{"6", "7"} {
		id, _, _ := readEvent(t, br2)
		if id != want {
			t.Fatalf("reconnect replayed id %s, want %s", id, want)
		}
	}

	// The ?last_id= query form works where headers can't reach (curl, EventSource shims).
	h.Publish("ch-0", []byte(`{"n":8}`))
	br3, _ := watchStream(t, srv, "?last_id=7", nil)
	if id, _, data := readEvent(t, br3); id != "8" || data != `{"n":8}` {
		t.Fatalf("query reconnect = (%s, %s)", id, data)
	}
}

func TestServeWatchChannelFilter(t *testing.T) {
	h := NewHub(HubConfig{})
	srv := wiretest.NewServer(t, wire.HandlerFunc(h.ServeWatch))
	defer h.Close()

	br, _ := watchStream(t, srv, "?channel=ch-1", nil)
	h.Publish("ch-0", []byte(`{"skip":true}`))
	h.Publish("ch-1", []byte(`{"keep":1}`))
	h.Publish("ch-0", []byte(`{"skip":true}`))
	h.Publish("ch-1", []byte(`{"keep":2}`))
	for _, want := range []string{`{"keep":1}`, `{"keep":2}`} {
		if _, _, data := readEvent(t, br); data != want {
			t.Fatalf("filtered stream got %s, want %s", data, want)
		}
	}
}

func TestServeWatchBadRequests(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	srv := wiretest.NewServer(t, wire.HandlerFunc(h.ServeWatch))

	resp, err := http.Post(srv.URL+"/watch", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /watch = %d, want 405", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/watch", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID = %d, want 400", resp.StatusCode)
	}
}

// TestPublishSlowSubscriberDropped: a dashboard that stops reading is cut
// loose — Publish never blocks the scoring path.
func TestPublishSlowSubscriberDropped(t *testing.T) {
	h := NewHub(HubConfig{SubBuf: 2})
	defer h.Close()
	sub := subscribe(h, "")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			h.Publish("ch-0", []byte(`{}`))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
	if _, gone := sub.Next(nil); !gone || h.Watchers() != 0 {
		t.Fatal("slow subscriber was not dropped")
	}
	// Its wake channel is closed, which is the reconnect signal.
	for range sub.Wake() {
	}
}

// TestHubCloseRaceClean: Close during a storm of appends, publishes and
// watch streams neither deadlocks nor leaks goroutines — run under -race
// this is the teardown half of the conformance contract.
func TestHubCloseRaceClean(t *testing.T) {
	h := NewHub(HubConfig{})
	srv := wiretest.NewServer(t, wire.HandlerFunc(h.ServeWatch))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("ch-%d", i)
			s, err := h.Acquire(id)
			if err != nil {
				return
			}
			defer s.Release()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				if s.Append(verdict(seq)) != nil {
					return
				}
				h.Publish(id, []byte(`{}`))
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/watch")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			for {
				if _, err := br.ReadString('\n'); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	h.Close()
	close(stop)
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("teardown hung")
	}
	// Post-close publishes and watches are refused cleanly.
	h.Publish("ch-0", []byte(`{}`))
	resp, err := http.Get(srv.URL + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("watch after close = %d, want 503", resp.StatusCode)
	}
}

// subscribe registers a watch subscriber the test drives by hand.
func subscribe(h *Hub, channel string) *Watcher {
	sub, _, err := h.Watch(channel, 0)
	if err != nil {
		panic(err)
	}
	return sub
}

// TestPublishLaggardCut: a subscriber whose oldest owed event is about to
// leave the watch ring is cut loose before it can be handed a gap — however
// much SubBuf it has left — while one that keeps copying out never is.
func TestPublishLaggardCut(t *testing.T) {
	h := NewHub(HubConfig{WatchCap: 4, SubBuf: 100})
	defer h.Close()
	slow, quick := subscribe(h, ""), subscribe(h, "")
	for i := 1; i <= 6; i++ {
		h.Publish("ch-0", []byte(fmt.Sprintf(`{"n":%d}`, i)))
		b, _ := quick.Next(nil)
		frames := string(b)
		if want := fmt.Sprintf("id: %d\nevent: verdict\ndata: {\"n\":%d}\n\n", i, i); frames != want {
			t.Fatalf("quick subscriber copied %q after event %d, want %q", frames, i, want)
		}
	}
	frames, gone := slow.Next(nil)
	if !gone || len(frames) != 0 {
		t.Fatalf("laggard: gone=%v, copied %q; want cut with nothing to deliver", gone, frames)
	}
	if _, quickGone := quick.Next(nil); quickGone {
		t.Fatal("a subscriber that kept up was cut")
	}
}

// TestPublishSteadyStateAllocs pins the watch path's cost and its copy
// semantics: once the ring is full, Publish — with a subscriber to consider
// — allocates nothing, and the slot holds its own copy of the payload, so
// the caller may reuse its buffer as soon as Publish returns.
func TestPublishSteadyStateAllocs(t *testing.T) {
	h := NewHub(HubConfig{WatchCap: 8})
	defer h.Close()
	subscribe(h, "other")
	payload := []byte(`{"n":0}`)
	for i := 0; i < 8; i++ {
		h.Publish("ch-0", payload)
	}
	if n := testing.AllocsPerRun(100, func() { h.Publish("ch-0", payload) }); n != 0 {
		t.Fatalf("Publish into a full ring allocates %v times, want 0", n)
	}
	copy(payload, `{"n":9}`)
	_, replay, err := h.Watch("ch-0", 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := string(replay)
	if strings.Count(frames, `data: {"n":0}`) != 8 || strings.Contains(frames, `"n":9`) {
		t.Fatalf("ring holds %q, want 8 copies of the payload as published", frames)
	}
}
