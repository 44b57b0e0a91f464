package main

// Live-plane conformance suite (ISSUE 10): protocol-level coverage of the
// daemon's WebSocket ingest endpoint and SSE watch dashboard, driven
// against the production mux. The headline invariants:
//
//   - byte-level verdict equality: the decision payloads a live WebSocket
//     stream produces are byte-identical to a chaos-free batch replay of
//     the same segments on a fresh template clone, across all three
//     adversarial loadgen presets;
//   - zero accepted-segment loss across disconnect + resume: a torn
//     connection followed by a Last-Seq reconnect replays exactly the
//     decisions lost in flight, and resending from the advertised floor
//     yields every sequence number exactly once;
//   - race-clean teardown: Drain mid-traffic cuts every live stream and
//     watch subscriber without deadlock or data race.
//
// Slow-loris writers and frame-level adversaries (fragmentation,
// interleaved control frames, torn frames) are covered at the codec layer
// in internal/stream/live; this suite owns the daemon-level contract.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aovlis/internal/serve/loadgen"
	"aovlis/internal/stream/live"
	"aovlis/internal/wire"
)

// dialLive dials the channel's live endpoint, retrying while the previous
// session's teardown still holds the producer slot (409 busy).
func dialLive(t *testing.T, url string, hdr http.Header) (*live.Conn, *http.Response) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, resp, err := live.Dial(url, hdr)
		if err == nil {
			return conn, resp
		}
		if resp != nil && resp.StatusCode == http.StatusConflict && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		t.Fatalf("dial %s: %v", url, err)
	}
}

// expectedPayloads batch-replays the stream on a fresh template clone and
// renders the decision payload each segment must produce live: same
// struct, same marshaller, so equality is byte-level.
func expectedPayloads(t *testing.T, ch string, acts, auds [][]float64) []string {
	t.Helper()
	clone, err := template(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(acts))
	for i := range acts {
		r, err := clone.Observe(acts[i], auds[i])
		if err != nil {
			t.Fatalf("batch replay segment %d: %v", i, err)
		}
		b, err := json.Marshal(&live.Decision{
			Channel: ch, Seq: uint64(i + 1),
			Warmup: r.Warmup, Anomaly: r.Anomaly, Score: r.Score, Exact: r.Exact, Path: r.Path,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// readText reads one text message with a deadline.
func readText(t *testing.T, conn *live.Conn) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	op, msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatalf("reading decision: %v", err)
	}
	if op != live.OpText {
		t.Fatalf("decision opcode %v, want text", op)
	}
	return msg
}

// sendObs writes one observation message.
func sendObs(t *testing.T, conn *live.Conn, action, audience []float64) {
	t.Helper()
	b, err := json.Marshal(live.Observation{Action: action, Audience: audience})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(live.OpText, b); err != nil {
		t.Fatalf("sending observation: %v", err)
	}
}

// TestLiveConformancePresets is the headline gate: each adversarial
// loadgen preset is split into per-channel segment streams, every channel
// is driven over its own live WebSocket connection, and each decision
// payload must be byte-identical to the batch replay of the same stream.
func TestLiveConformancePresets(t *testing.T) {
	_, srv := openNode(t, testConfig(32, 4))
	totalSegments := 0
	for pi, name := range loadgen.PresetNames() {
		t.Run(name, func(t *testing.T) {
			cfg, err := loadgen.AdversarialPreset(name, int64(42+pi), 2, testActionDim, testAudienceDim)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := loadgen.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			type stream struct{ acts, auds [][]float64 }
			streams := make([]stream, cfg.Channels)
			for i := range sched.Arrivals {
				a := &sched.Arrivals[i]
				st := &streams[a.ChannelIndex]
				st.acts = append(st.acts, a.Action)
				st.auds = append(st.auds, a.Audience)
			}
			var wg sync.WaitGroup
			for ci := range streams {
				if len(streams[ci].acts) == 0 {
					t.Fatalf("preset %s channel %d drew no arrivals", name, ci)
				}
				wg.Add(1)
				go func(ci int) {
					defer wg.Done()
					ch := fmt.Sprintf("%s-%d", name, ci)
					st := streams[ci]
					conn, resp := dialLive(t, srv.URL+"/live/"+ch, nil)
					defer conn.Close()
					if got := resp.Header.Get(live.ResumeHeader); got != "0" {
						t.Errorf("channel %s: fresh resume floor %q, want 0", ch, got)
						return
					}
					go func() {
						for i := range st.acts {
							b, err := json.Marshal(live.Observation{Action: st.acts[i], Audience: st.auds[i]})
							if err != nil {
								return
							}
							if err := conn.WriteMessage(live.OpText, b); err != nil {
								return
							}
						}
					}()
					want := expectedPayloads(t, ch, st.acts, st.auds)
					for i := range want {
						got := string(readText(t, conn))
						if got != want[i] {
							t.Errorf("channel %s segment %d diverged live vs batch:\n live  %s\n batch %s",
								ch, i, got, want[i])
							return
						}
					}
				}(ci)
			}
			wg.Wait()
			for ci := range streams {
				totalSegments += len(streams[ci].acts)
			}
		})
	}
	if !t.Failed() {
		t.Logf("live conformance: %d segments bit-equal across %d presets", totalSegments, len(loadgen.PresetNames()))
	}
}

// TestLiveDisconnectResume tears the connection mid-stream with decisions
// still in flight, reconnects with Last-Seq, and checks the resume
// contract end to end: the replay returns exactly the decisions lost in
// flight, resending from the advertised floor never duplicates an
// accepted segment, every sequence number arrives exactly once, and the
// full decision sequence is byte-identical to the batch replay.
func TestLiveDisconnectResume(t *testing.T) {
	_, srv := openNode(t, testConfig(32, 4))
	const total = 30
	acts, auds := testSeries(5, total)
	want := expectedPayloads(t, "res", acts, auds)
	got := make(map[uint64]string)

	// Leg 1: send 12, read 8, then tear the TCP connection without a close
	// handshake — decisions 9..floor are accepted but lost in flight.
	conn, resp := dialLive(t, srv.URL+"/live/res", nil)
	if f := resp.Header.Get(live.ResumeHeader); f != "0" {
		t.Fatalf("fresh resume floor %q, want 0", f)
	}
	for i := 0; i < 12; i++ {
		sendObs(t, conn, acts[i], auds[i])
	}
	for i := 0; i < 8; i++ {
		var dec live.Decision
		raw := readText(t, conn)
		if err := json.Unmarshal(raw, &dec); err != nil {
			t.Fatal(err)
		}
		if dec.Seq != uint64(i+1) {
			t.Fatalf("leg 1 decision %d has seq %d", i, dec.Seq)
		}
		got[dec.Seq] = string(raw)
	}
	conn.NetConn().Close()

	// Leg 2: reconnect with the last seq this client saw. The handshake
	// advertises the accepted floor; the ring replays (lastSeq, floor].
	conn2, resp2 := dialLive(t, srv.URL+"/live/res", http.Header{live.LastSeqHeader: []string{"8"}})
	defer conn2.Close()
	floor, err := strconv.ParseUint(resp2.Header.Get(live.ResumeHeader), 10, 64)
	if err != nil {
		t.Fatalf("bad resume floor %q", resp2.Header.Get(live.ResumeHeader))
	}
	if floor < 8 || floor > 12 {
		t.Fatalf("resume floor %d outside [8,12]", floor)
	}
	for seq := uint64(9); seq <= floor; seq++ {
		raw := readText(t, conn2)
		var dec live.Decision
		if err := json.Unmarshal(raw, &dec); err != nil {
			t.Fatal(err)
		}
		if dec.Seq != seq {
			t.Fatalf("replayed decision seq %d, want %d", dec.Seq, seq)
		}
		if _, dup := got[dec.Seq]; dup {
			t.Fatalf("replay duplicated seq %d", dec.Seq)
		}
		got[dec.Seq] = string(raw)
	}
	// Resend from the floor: segments [floor, total) were never accepted.
	go func() {
		for i := int(floor); i < total; i++ {
			b, err := json.Marshal(live.Observation{Action: acts[i], Audience: auds[i]})
			if err != nil {
				return
			}
			if err := conn2.WriteMessage(live.OpText, b); err != nil {
				return
			}
		}
	}()
	for seq := floor + 1; seq <= total; seq++ {
		raw := readText(t, conn2)
		var dec live.Decision
		if err := json.Unmarshal(raw, &dec); err != nil {
			t.Fatal(err)
		}
		if dec.Seq != seq {
			t.Fatalf("post-resume decision seq %d, want %d", dec.Seq, seq)
		}
		got[dec.Seq] = string(raw)
	}

	// Zero loss, zero duplication, byte-equality.
	if len(got) != total {
		t.Fatalf("received %d distinct seqs, want %d (lost %d)", len(got), total, total-len(got))
	}
	for seq := uint64(1); seq <= total; seq++ {
		if got[seq] != want[seq-1] {
			t.Fatalf("seq %d diverged across resume:\n live  %s\n batch %s", seq, got[seq], want[seq-1])
		}
	}
	t.Logf("resume: floor %d after torn connection, %d/%d decisions bit-equal, lost=0", floor, len(got), total)
}

// TestLiveRefusals covers the upgrade-refusal statuses: a second live
// connection to a busy channel is 409, a Last-Seq ahead of the server's
// floor is 409 with the floor advertised, and an unknown path is 404.
func TestLiveRefusals(t *testing.T) {
	_, srv := openNode(t, testConfig(32, 0))
	acts, auds := testSeries(9, 4)
	conn, _ := dialLive(t, srv.URL+"/live/busy", nil)
	defer conn.Close()
	sendObs(t, conn, acts[0], auds[0])
	readText(t, conn)

	if _, resp, err := live.Dial(srv.URL+"/live/busy", nil); err == nil || resp == nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("second live connection: err %v, resp %+v; want 409", err, resp)
	}
	_, resp, err := live.Dial(srv.URL+"/live/fresh", http.Header{live.LastSeqHeader: []string{"7"}})
	if err == nil || resp == nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("ahead-of-floor resume: err %v, resp %+v; want 409", err, resp)
	}
	if got := resp.Header.Get(live.ResumeHeader); got != "0" {
		t.Fatalf("ahead-of-floor refusal advertises floor %q, want 0", got)
	}
	if _, resp, err := live.Dial(srv.URL+"/live/", nil); err == nil || resp == nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bare /live/: err %v, resp %+v; want 404", err, resp)
	}
}

// TestWatchStreamsVerdicts drives segments through the NDJSON plane and
// checks the SSE dashboard mirrors every non-warmup verdict, then
// reconnects with Last-Event-ID and receives the retained tail again.
func TestWatchStreamsVerdicts(t *testing.T) {
	_, srv := openNode(t, testConfig(32, 0))
	acts, auds := testSeries(13, 20)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/watch?channel=w0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("watch status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	var body strings.Builder
	for i := range acts {
		b, _ := json.Marshal(wire.Observation{Action: acts[i], Audience: auds[i]})
		body.WriteString(string(b) + "\n")
	}
	decs := postObserve(t, srv, "w0", body.String())
	wantEvents := 0
	for _, dec := range decs {
		if !dec.Warmup && dec.Error == "" {
			wantEvents++
		}
	}
	if wantEvents == 0 {
		t.Fatal("stream produced no non-warmup verdicts; nothing to watch")
	}

	// The sink publishes before the observe response line is written, so by
	// the time postObserve returned, all events are at the subscriber.
	sc := bufio.NewScanner(resp.Body)
	lastID, events := "", 0
	for events < wantEvents && sc.Scan() {
		line := sc.Text()
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			lastID = id
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var dec live.Decision
			if err := json.Unmarshal([]byte(data), &dec); err != nil {
				t.Fatalf("bad watch payload %q: %v", data, err)
			}
			if dec.Channel != "w0" {
				t.Fatalf("filtered watch leaked channel %q", dec.Channel)
			}
			events++
		}
	}
	if events != wantEvents {
		t.Fatalf("watch delivered %d events, want %d (scan err %v)", events, wantEvents, sc.Err())
	}
	cancel()

	// Reconnect past all but the last event: exactly one replays.
	prev, err := strconv.ParseUint(lastID, 10, 64)
	if err != nil || prev == 0 {
		t.Fatalf("no usable last event id %q", lastID)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel2()
	req2, err := http.NewRequestWithContext(ctx2, http.MethodGet, srv.URL+"/watch?channel=w0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Last-Event-ID", strconv.FormatUint(prev-1, 10))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		if id, ok := strings.CutPrefix(sc2.Text(), "id: "); ok {
			if id != lastID {
				t.Fatalf("replayed event id %s, want %s", id, lastID)
			}
			return
		}
	}
	t.Fatalf("reconnect replayed nothing (scan err %v)", sc2.Err())
}

// TestLiveTeardownRaceClean storms the live plane — three WebSocket
// producers and two SSE watchers mid-traffic — then drains the node.
// Every stream must unblock and end, new upgrades must be refused, and
// the whole sequence must be data-race free under -race.
func TestLiveTeardownRaceClean(t *testing.T) {
	n, srv := openNode(t, testConfig(32, 2))
	acts, auds := testSeries(17, 400)
	var delivered atomic.Int64
	var wg, dialed sync.WaitGroup
	for ci := 0; ci < 3; ci++ {
		wg.Add(1)
		dialed.Add(1)
		go func(ci int) {
			defer wg.Done()
			conn, _, err := live.Dial(srv.URL+fmt.Sprintf("/live/tear-%d", ci), nil)
			dialed.Done()
			if err != nil {
				t.Errorf("producer %d dial: %v", ci, err)
				return
			}
			defer conn.Close()
			for i := range acts {
				b, _ := json.Marshal(live.Observation{Action: acts[i], Audience: auds[i]})
				if err := conn.WriteMessage(live.OpText, b); err != nil {
					return // hub closed underneath us: expected
				}
				conn.SetReadDeadline(time.Now().Add(15 * time.Second))
				if _, _, err := conn.ReadMessage(); err != nil {
					return
				}
				delivered.Add(1)
			}
		}(ci)
	}
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/watch")
			if err != nil {
				t.Errorf("watcher: %v", err)
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() { // runs until the hub close ends the stream
			}
		}()
	}

	// Every producer is connected before the node may drain: one still
	// dialling when the others reach ten decisions would be refused (503).
	dialed.Wait()
	deadline := time.Now().Add(15 * time.Second)
	for delivered.Load() < 10 {
		if time.Now().After(deadline) {
			t.Fatal("live plane never delivered 10 decisions")
		}
		time.Sleep(5 * time.Millisecond)
	}
	n.Drain()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Drain left live streams running")
	}
	if _, resp, err := live.Dial(srv.URL+"/live/late", nil); err == nil || resp == nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close upgrade: err %v, resp %+v; want 503", err, resp)
	}
	if resp, err := http.Get(srv.URL + "/watch"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close watch: %v %v; want 503", err, resp)
	} else {
		resp.Body.Close()
	}
}
