package main

// One table over both framings of the segment pump (serve.Pump): the NDJSON
// observe endpoint and the WebSocket live plane, driven against a node's
// handler. Every case runs on both, so the pump's contract — strict
// message order at any window, decisions reaching an idle client, window
// backpressure, the exit drain, and the one outcome classification — is
// pinned once for the one implementation.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aovlis/internal/node"
	"aovlis/internal/serve"
	"aovlis/internal/stream/liveplane"
	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// planeStream is one client connection to a plane.
type planeStream struct {
	send  func(msg string)      // one message, verbatim
	recv  func() wire.Decision  // the next decision (bounded wait)
	abort func()                // drop the connection without ceremony
	seq   func(i, v int) uint64 // expected Seq of line i when it is the stream's v-th verdict (both 0-based)
}

type plane struct {
	name string
	open func(t *testing.T, srv *wiretest.Server, id string) *planeStream
}

var planes = []plane{
	{"ndjson", func(t *testing.T, srv *wiretest.Server, id string) *planeStream {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		t.Cleanup(cancel)
		pr, pw := io.Pipe()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/channels/"+id+"/observe", pr)
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			resp *http.Response
			err  error
		}
		// The server sends its headers with the first flushed decision, so
		// Do only returns once the stream is under way.
		respc := make(chan result, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			respc <- result{resp, err}
		}()
		var br *bufio.Reader
		return &planeStream{
			send: func(msg string) {
				if _, err := io.WriteString(pw, msg+"\n"); err != nil {
					t.Errorf("ndjson send: %v", err)
				}
			},
			recv: func() wire.Decision {
				t.Helper()
				if br == nil {
					r := <-respc
					if r.err != nil {
						t.Fatalf("ndjson stream: %v", r.err)
					}
					if r.resp.StatusCode != http.StatusOK {
						t.Fatalf("ndjson stream: %s", r.resp.Status)
					}
					t.Cleanup(func() { r.resp.Body.Close() })
					br = bufio.NewReader(r.resp.Body)
				}
				line, err := br.ReadBytes('\n')
				if err != nil {
					t.Fatalf("ndjson recv: %v", err)
				}
				var d wire.Decision
				if err := wire.DecodeDecision(line, &d); err != nil {
					t.Fatalf("ndjson decision %q: %v", line, err)
				}
				return d
			},
			abort: func() { cancel(); pw.CloseWithError(io.ErrClosedPipe) },
			seq:   func(i, v int) uint64 { return uint64(i) },
		}
	}},
	{"live", func(t *testing.T, srv *wiretest.Server, id string) *planeStream {
		conn, _ := dialLive(t, strings.Replace(srv.URL, "http://", "ws://", 1)+"/live/"+id, nil)
		t.Cleanup(func() { conn.Close() })
		return &planeStream{
			send: func(msg string) {
				if err := conn.WriteMessage(liveplane.OpText, []byte(msg)); err != nil {
					t.Errorf("live send: %v", err)
				}
			},
			recv: func() wire.Decision {
				t.Helper()
				var d wire.Decision
				if msg := readText(t, conn); wire.DecodeDecision(msg, &d) != nil {
					t.Fatalf("live decision %q", msg)
				}
				return d
			},
			abort: func() { conn.Close() },
			seq: func(i, v int) uint64 {
				if v < 0 {
					return 0 // no verdict: not accepted, may be resent
				}
				return uint64(v + 1)
			},
		}
	}},
}

// streamHandlers counts the observe/live handlers currently running.
type streamHandlers struct{ n atomic.Int64 }

func (a *streamHandlers) wrap(h wire.Handler) wire.Handler {
	return wire.HandlerFunc(func(w wire.ResponseWriter, r *wire.Request) {
		if strings.HasSuffix(r.URL.Path, "/observe") || strings.HasPrefix(r.URL.Path, "/live/") {
			a.n.Add(1)
			defer a.n.Add(-1)
		}
		h.ServeHTTP(w, r)
	})
}

// newPumpNode opens a node over a pool of the given shape pipelining window
// segments per stream; when gated, channel "ch" is a gatedDet instead of a
// template clone.
func newPumpNode(t *testing.T, pool serve.Config, window int, gated bool) (*node.Node, *wiretest.Server, *gatedDet, *streamHandlers) {
	t.Helper()
	pool.Batch = window
	running := &streamHandlers{}
	n, srv, stop := startNode(t, node.Config{MaxChannels: 8, Pool: pool}, running.wrap)
	t.Cleanup(stop)
	g := &gatedDet{release: make(chan struct{}), entered: make(chan struct{}, 64)}
	if gated {
		if err := n.Pool().Attach("ch", g); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(g.open) // runs before stop, which waits out the parked segments
	return n, srv, g, running
}

var gatedObs = observeLine([]float64{1}, []float64{1})

// waitAccepted polls the pool's accepted counter until it reaches want.
func waitAccepted(t *testing.T, srv *wiretest.Server, want float64) {
	t.Helper()
	pollUntil(t, fmt.Sprintf("%g accepted submissions", want), func() bool {
		_, samples := scrape(t, srv)
		return samples["aovlis_pool_accepted_total"] >= want
	})
}

var blockCfg = serve.Config{Shards: 1, QueueDepth: 64}

func TestPumpBothFramings(t *testing.T) {
	for _, pl := range planes {
		t.Run(pl.name, func(t *testing.T) {
			for _, window := range []int{1, 4, 16} {
				t.Run(fmt.Sprintf("in-order/window=%d", window), func(t *testing.T) {
					_, srv, _, _ := newPumpNode(t, blockCfg, window, false)
					acts, auds := testSeries(31, 40)
					clone, err := template(t).Clone()
					if err != nil {
						t.Fatal(err)
					}
					st := pl.open(t, srv, "ch")
					go func() {
						for i := range acts {
							st.send(observeLine(acts[i], auds[i]))
						}
					}()
					for i := range acts {
						want, err := clone.Observe(acts[i], auds[i])
						if err != nil {
							t.Fatal(err)
						}
						got := st.recv()
						if got.Seq != st.seq(i, i) || !got.Verdict() || got.Warmup != want.Warmup || got.Anomaly != want.Anomaly ||
							got.Path != want.Path || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
							t.Fatalf("decision %d = %+v, want seq %d and %+v", i, got, st.seq(i, i), want)
						}
					}
				})
			}

			// Flush-before-block plus the select over {next message, oldest
			// outcome}: a decision reaches a client that has gone quiet
			// mid-stream, with window slots and input both still open.
			t.Run("idle client", func(t *testing.T) {
				_, srv, _, _ := newPumpNode(t, blockCfg, 4, false)
				acts, auds := testSeries(33, 2)
				st := pl.open(t, srv, "ch")
				for i := range acts {
					st.send(observeLine(acts[i], auds[i]))
					if got := st.recv(); got.Seq != st.seq(i, i) || !got.Verdict() {
						t.Fatalf("decision %d = %+v", i, got)
					}
				}
			})

			// A full window stops reads: with the detector parked, exactly
			// window submissions reach the pool however many messages the
			// client has sent; the rest follow, in order, as slots free.
			t.Run("backpressure", func(t *testing.T) {
				const window, sent = 2, 6
				_, srv, g, _ := newPumpNode(t, blockCfg, window, true)
				st := pl.open(t, srv, "ch")
				for i := 0; i < sent; i++ {
					st.send(gatedObs)
				}
				waitAccepted(t, srv, window)
				time.Sleep(30 * time.Millisecond) // a window overrun would show up here
				if _, samples := scrape(t, srv); samples["aovlis_pool_accepted_total"] != window {
					t.Fatalf("%g submissions in flight past a window of %d", samples["aovlis_pool_accepted_total"], window)
				}
				g.open()
				for i := 0; i < sent; i++ {
					if got := st.recv(); got.Seq != st.seq(i, i) || !got.Verdict() {
						t.Fatalf("decision %d = %+v", i, got)
					}
				}
			})

			// The client vanishes with submissions in flight: the handler
			// stays until it has consumed every outcome, and the live plane
			// rings each of them so a reconnect replays what was lost.
			t.Run("exit drain", func(t *testing.T) {
				const inflight = 3
				n, srv, g, running := newPumpNode(t, blockCfg, 4, true)
				st := pl.open(t, srv, "ch")
				for i := 0; i < inflight; i++ {
					st.send(gatedObs)
				}
				waitAccepted(t, srv, inflight)
				st.abort()
				time.Sleep(30 * time.Millisecond) // an early return would show up here
				if running.n.Load() != 1 {
					t.Fatal("handler returned with submissions still in flight")
				}
				g.open()
				pollUntil(t, "handler to drain and return", func() bool { return running.n.Load() == 0 })
				if cs, err := n.Pool().Stats("ch"); err != nil || cs.Observed != inflight || cs.QueueDepth != 0 {
					t.Fatalf("after drain: %+v, %v", cs, err)
				}
				if pl.name != "live" {
					return
				}
				conn, resp := dialLive(t, strings.Replace(srv.URL, "http://", "ws://", 1)+"/live/ch",
					wire.Header{liveplane.LastSeqHeader: []string{"0"}})
				defer conn.Close()
				if got := resp.Header.Get(liveplane.ResumeHeader); got != fmt.Sprint(inflight) {
					t.Fatalf("resume floor %q, want %d", got, inflight)
				}
				for seq := uint64(1); seq <= inflight; seq++ {
					var dec wire.Decision
					if err := wire.DecodeDecision(readText(t, conn), &dec); err != nil || dec.Seq != seq || !dec.Verdict() {
						t.Fatalf("replayed decision %+v (%v), want seq %d", dec, err, seq)
					}
				}
			})
		})
	}
}

// TestPumpOutcomeKinds pins the one classification site: each way a line
// can end — parse error, rejected, detector error, accepted — on both
// framings.
func TestPumpOutcomeKinds(t *testing.T) {
	acts, auds := testSeries(35, 1)
	good := observeLine(acts[0], auds[0])
	kinds := []struct {
		name  string
		cfg   serve.Config
		gated bool
		// lines to send before the gate opens; the last one is the line
		// under test. parked lines (gated only) are sent one at a time,
		// each waited into the pool, so queue depth is deterministic.
		lines []string
		check func(d wire.Decision) bool
	}{
		{"parse error", blockCfg, false, []string{"{not json"},
			func(d wire.Decision) bool {
				return strings.Contains(d.Error, "bad observation line") && !d.Dropped && !d.Rejected
			}},
		{"detector error", blockCfg, false, []string{observeLine([]float64{1, 2}, []float64{3})},
			func(d wire.Decision) bool {
				return strings.Contains(d.Error, "feature dims") && !d.Dropped && !d.Rejected
			}},
		{"accepted", blockCfg, false, []string{good},
			func(d wire.Decision) bool { return d.Verdict() && d.Warmup }},
		// One parked, nine queued: the eleventh submit finds the queue at
		// the reject watermark (⌈0.9·10⌉ = 9), one slot short of full.
		{"rejected", serve.Config{Shards: 1, QueueDepth: 10, Admission: serve.DefaultAdmissionConfig()}, true,
			[]string{gatedObs, gatedObs, gatedObs, gatedObs, gatedObs, gatedObs, gatedObs, gatedObs, gatedObs, gatedObs, gatedObs},
			func(d wire.Decision) bool { return d.Rejected && !d.Dropped && d.Error == "" }},
	}
	for _, k := range kinds {
		for _, pl := range planes {
			t.Run(k.name+"/"+pl.name, func(t *testing.T) {
				_, srv, g, _ := newPumpNode(t, k.cfg, 16, k.gated)
				st := pl.open(t, srv, "ch")
				last := len(k.lines) - 1
				for i, line := range k.lines {
					st.send(line)
					if k.gated && i == 0 {
						<-g.entered // the first segment is parked in the detector, off the queue
					}
					if k.gated && i < last {
						waitAccepted(t, srv, float64(i+1))
					}
				}
				if k.gated {
					// The refusal is decided at submit time but waits its
					// turn behind the parked segments.
					pollUntil(t, "the refusal to be counted", func() bool {
						cs, err := chStats(t, srv)
						return err == nil && cs.Rejected == 1
					})
					g.open()
				}
				for i := 0; i < last; i++ {
					if got := st.recv(); got.Seq != st.seq(i, i) || !got.Verdict() {
						t.Fatalf("leading decision %d = %+v", i, got)
					}
				}
				got := st.recv()
				verdict := -1
				if got.Verdict() {
					verdict = last
				}
				if !k.check(got) || got.Channel != "ch" || got.Seq != st.seq(last, verdict) {
					t.Fatalf("%s decision = %+v (want seq %d)", k.name, got, st.seq(last, verdict))
				}
			})
		}
	}
}

// TestPumpRejectionIsNotADrop streams past a pool's reject watermark at
// full speed, so refusals land while the shard worker is relaxing the
// admission state. Nothing can be dropped: every refused line must say
// "rejected" (back off and resend) and the lines must add up to the pool's
// own counters: a refusal is classified by its error, not by the admission
// state read afterwards.
func TestPumpRejectionIsNotADrop(t *testing.T) {
	cfg := serve.Config{Shards: 1, QueueDepth: 10, Admission: serve.DefaultAdmissionConfig()}
	acts, auds := testSeries(37, 1500)
	for _, pl := range planes {
		t.Run(pl.name, func(t *testing.T) {
			_, srv, _, _ := newPumpNode(t, cfg, 16, false)
			st := pl.open(t, srv, "ch")
			go func() {
				for i := range acts {
					st.send(observeLine(acts[i], auds[i]))
				}
			}()
			var verdicts, rejected uint64
			for i := range acts {
				switch d := st.recv(); {
				case d.Verdict():
					verdicts++
				case d.Rejected && !d.Dropped && d.Error == "":
					rejected++
				default:
					t.Fatalf("line %d under admission = %+v, want a verdict or a rejection", i, d)
				}
			}
			cs, err := chStats(t, srv)
			if err != nil || cs.Observed != verdicts || cs.Rejected != rejected {
				t.Fatalf("client saw %d verdicts, %d rejections; pool %+v (%v)", verdicts, rejected, cs, err)
			}
			if rejected == 0 {
				t.Fatal("the stream never outran the pool — no refusal was classified")
			}
		})
	}
}

// chStats reads channel "ch"'s counters over HTTP.
func chStats(t *testing.T, srv *wiretest.Server) (serve.ChannelStats, error) {
	t.Helper()
	for _, cs := range channelList(t, srv) {
		if cs.Channel == "ch" {
			return cs, nil
		}
	}
	return serve.ChannelStats{}, fmt.Errorf("channel ch not listed")
}

// hostileLine is an observation every audience feature of which is 1e200:
// finite on the wire, but the squares in its L2 reconstruction error
// overflow, so it scores +Inf, which JSON cannot carry.
func hostileLine() string {
	acts, _ := testSeries(41, 1)
	aud := make([]float64, testAudienceDim)
	for i := range aud {
		aud[i] = 1e200
	}
	return observeLine(acts[0], aud)
}

// TestPumpNonFiniteScore: a segment scored ±Inf or NaN gets a line with its
// seq that names the score as not finite and keeps the verdict's anomaly
// flag and path, and the stream goes on — on both framings. On the live
// plane the line keeps its accepted seq (the segment was applied; a resend
// would apply it twice) and is ringed for a reconnect like any verdict.
func TestPumpNonFiniteScore(t *testing.T) {
	acts, auds := testSeries(43, 14)
	for _, pl := range planes {
		t.Run(pl.name, func(t *testing.T) {
			_, srv, _, _ := newPumpNode(t, blockCfg, 4, false)
			ref, err := template(t).Clone()
			if err != nil {
				t.Fatal(err)
			}
			st := pl.open(t, srv, "ch")
			for i := range acts {
				line := observeLine(acts[i], auds[i])
				a, u := acts[i], auds[i]
				if i == 10 {
					line = hostileLine()
					var o wire.Observation
					if err := wire.DecodeObservation([]byte(line), &o); err != nil {
						t.Fatal(err)
					}
					a, u = o.Action, o.Audience
				}
				want, err := ref.Observe(a, u)
				if err != nil {
					t.Fatal(err)
				}
				st.send(line)
				got := st.recv()
				if got.Seq != st.seq(i, i) || !got.Verdict() || got.Anomaly != want.Anomaly || got.Path != want.Path {
					t.Fatalf("line %d = %+v, want seq %d and %+v", i, got, st.seq(i, i), want)
				}
				if i != 10 {
					continue
				}
				if !math.IsInf(want.Score, 0) && !math.IsNaN(want.Score) {
					t.Fatalf("the hostile line scores %v; the test needs a non-finite score", want.Score)
				}
				if got.Score != 0 || !strings.Contains(got.Error, "not finite") || !got.Anomaly {
					t.Fatalf("hostile line = %+v, want score 0, an anomaly and a not-finite error", got)
				}
			}
		})
	}
}
