package main

// httptest coverage for the telemetry and overload surface: the Prometheus
// /metrics exposition (format, bucket monotonicity, counters never
// decreasing across scrapes), 429 + Retry-After under admission reject,
// the rejection count in /channels, and a goroutine-leak assertion on the
// node's shutdown path.

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/node"
	"aovlis/internal/serve"
	"aovlis/internal/wire/wiretest"
)

// gatedDet blocks each segment on a release channel, one lane at a time;
// closing the channel opens the gate permanently.
type gatedDet struct {
	release   chan struct{}
	entered   chan struct{} // when set (buffered), signalled as each segment parks
	closeOnce sync.Once
}

func (g *gatedDet) open() { g.closeOnce.Do(func() { close(g.release) }) }

func (g *gatedDet) ObserveBatch(acts, _ [][]float64, results []aovlis.Result) (int, error) {
	for i := range acts {
		if g.entered != nil {
			g.entered <- struct{}{}
		}
		<-g.release
		results[i] = aovlis.Result{Score: 0.1, Exact: true, Path: "exact"}
	}
	return len(acts), nil
}

// scrape fetches /metrics and returns the body plus every sample parsed
// into name{labels} → value.
func scrape(t *testing.T, srv *wiretest.Server) (string, map[string]float64) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics Content-Type %q lacks exposition version", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable metrics line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[key] = f
	}
	return string(body), samples
}

// TestMetricsEndpointFormat drives traffic, scrapes twice, and pins the
// exposition-format invariants: HELP/TYPE headers, cumulative
// bucket monotonicity with _count == the +Inf bucket, and counters that
// never decrease between scrapes with traffic in between.
func TestMetricsEndpointFormat(t *testing.T) {
	_, srv := openNode(t, testConfig(8, 0))
	acts, auds := testSeries(11, 12)
	var lines strings.Builder
	for i := range acts {
		lines.WriteString(observeLine(acts[i], auds[i]) + "\n")
	}
	postObserve(t, srv, "alpha", lines.String())

	body, first := scrape(t, srv)
	for _, want := range []string{
		"# HELP aovlis_pool_queue_wait_seconds ",
		"# TYPE aovlis_pool_queue_wait_seconds histogram",
		"# TYPE aovlis_pool_accepted_total counter",
		"# TYPE aovlis_pool_admission_state gauge",
		`aovlis_pool_shard_queue_depth{shard="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body lacks %q:\n%s", want, body)
		}
	}

	// Histogram invariants for every histogram family in the scrape.
	for _, fam := range []string{"aovlis_pool_queue_wait_seconds", "aovlis_pool_score_latency_seconds", "aovlis_pool_batch_occupancy"} {
		type bkt struct {
			le  float64
			val float64
		}
		var buckets []bkt
		for key, val := range first {
			if strings.HasPrefix(key, fam+"_bucket{") {
				leStr := strings.TrimSuffix(strings.SplitAfter(key, `le="`)[1], `"}`)
				le, err := strconv.ParseFloat(leStr, 64)
				if err != nil && leStr != "+Inf" {
					t.Fatalf("bad le in %q", key)
				}
				if leStr == "+Inf" {
					le = math.Inf(1)
				}
				buckets = append(buckets, bkt{le, val})
			}
		}
		if len(buckets) == 0 {
			t.Fatalf("no buckets for %s", fam)
		}
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
		for i := 1; i < len(buckets); i++ {
			if buckets[i].val < buckets[i-1].val {
				t.Fatalf("%s buckets not cumulative at le=%g: %g < %g", fam, buckets[i].le, buckets[i].val, buckets[i-1].val)
			}
		}
		if cnt := first[fam+"_count"]; cnt != buckets[len(buckets)-1].val {
			t.Fatalf("%s _count %g != +Inf bucket %g", fam, cnt, buckets[len(buckets)-1].val)
		}
	}
	if first["aovlis_pool_accepted_total"] != 12 || first["aovlis_pool_observed_total"] != 12 {
		t.Fatalf("accepted/observed = %g/%g, want 12/12",
			first["aovlis_pool_accepted_total"], first["aovlis_pool_observed_total"])
	}

	// Second scrape after more traffic: every counter and bucket sample is
	// monotone non-decreasing.
	postObserve(t, srv, "alpha", lines.String())
	_, second := scrape(t, srv)
	for key, v1 := range first {
		if strings.Contains(key, "_total") || strings.Contains(key, "_bucket") ||
			strings.HasSuffix(key, "_count") || strings.HasSuffix(key, "_sum") {
			if v2, ok := second[key]; !ok || v2 < v1 {
				t.Fatalf("sample %s decreased across scrapes: %g -> %g", key, v1, v2)
			}
		}
	}
	if second["aovlis_pool_observed_total"] != 24 {
		t.Fatalf("observed after second stream = %g, want 24", second["aovlis_pool_observed_total"])
	}
}

// newOverloadNode opens a node over a tiny admission-controlled pool with
// one gated channel, so tests can steer the pool through the admission
// states deterministically.
func newOverloadNode(t *testing.T) (*node.Node, *wiretest.Server, *gatedDet) {
	t.Helper()
	n, srv := openNode(t, node.Config{MaxChannels: 8,
		Pool: serve.Config{Shards: 1, QueueDepth: 10, Batch: 1, Admission: serve.DefaultAdmissionConfig()}})
	g := &gatedDet{release: make(chan struct{})}
	if err := n.Pool().Attach("slow", g); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.open) // runs before openNode's stop, which waits out the parked segments
	return n, srv, g
}

// pollUntil retries cond for up to 5s.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestObserve429UnderOverload drives the pool into admission reject and
// checks the HTTP surface: POST observe answers 429 with Retry-After,
// /metrics reports the admission state, /channels counts the refusals and
// keeps scoring what was accepted, and after the drain the same stream
// scores normally again.
func TestObserve429UnderOverload(t *testing.T) {
	n, srv, g := newOverloadNode(t)

	// One in-flight observation plus a backlog past the reject watermark.
	var outs []<-chan serve.Outcome
	overloaded := false
	for i := 0; i < 15; i++ {
		out := make(chan serve.Outcome, 1)
		err := n.Pool().SubmitInto("slow", []float64{1}, []float64{1}, out)
		if err != nil {
			overloaded = true
			break
		}
		outs = append(outs, out)
	}
	if !overloaded || n.Pool().AdmissionState() != serve.AdmitReject {
		t.Fatalf("pool not driven to reject: overloaded=%v state=%v", overloaded, n.Pool().AdmissionState())
	}

	resp, err := http.Post(srv.URL+"/channels/slow/observe", "application/x-ndjson",
		strings.NewReader(observeLine([]float64{1}, []float64{1})+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("observe under overload returned %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response lacks Retry-After header")
	}
	if !resp.Close {
		t.Fatal("429 with the body unread under full duplex must close the connection (net/http panics reusing it)")
	}
	// A refused stream on a NEW channel id must be refused before the
	// channel is created: no template clone, no -max-channels slot burned.
	resp, err = http.Post(srv.URL+"/channels/fresh/observe", "application/x-ndjson",
		strings.NewReader(observeLine([]float64{1}, []float64{1})+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("new-id observe under overload returned %s, want 429", resp.Status)
	}
	if chans := n.Pool().Channels(); len(chans) != 1 {
		t.Fatalf("refused new-id stream left channels %v, want only the pre-attached one", chans)
	}

	_, samples := scrape(t, srv)
	if samples["aovlis_pool_admission_state"] != 1 {
		t.Fatalf("admission_state gauge = %g, want 1 (reject)", samples["aovlis_pool_admission_state"])
	}
	if samples["aovlis_pool_rejected_total"] < 1 {
		t.Fatalf("rejected_total = %g, want ≥ 1", samples["aovlis_pool_rejected_total"])
	}

	// Let a few segments score while still backed up: accepted work keeps
	// draining under reject, and /channels must show it next to the
	// refusals (the SubmitInto above plus the refused stream on "slow").
	for i := 0; i < 3; i++ {
		g.release <- struct{}{}
	}
	pollUntil(t, "scoring and refusals visible in /channels", func() bool {
		for _, cs := range channelList(t, srv) {
			if cs.Channel == "slow" && cs.Observed == 3 && cs.Rejected == 1 {
				return true
			}
		}
		return false
	})
	if s := n.Pool().AdmissionState(); s != serve.AdmitReject {
		t.Fatalf("admission state %v with the queue still above the low watermark, want reject", s)
	}

	// Drain everything; the pool must recover to normal and the
	// previously-rejected stream must now score.
	g.open()
	for _, out := range outs {
		<-out
	}
	pollUntil(t, "admission back to normal", func() bool {
		return n.Pool().AdmissionState() == serve.AdmitNormal
	})
	decs := postObserve(t, srv, "slow", observeLine([]float64{1}, []float64{1})+"\n")
	if len(decs) != 1 || decs[0].Error != "" || decs[0].Rejected {
		t.Fatalf("post-recovery decision %+v", decs)
	}
}

// channelList decodes GET /channels.
func channelList(t *testing.T, srv *wiretest.Server) []serve.ChannelStats {
	t.Helper()
	resp, err := http.Get(srv.URL + "/channels")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []serve.ChannelStats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDaemonShutdownLeaksNoGoroutines opens a node, runs traffic on both
// ingest planes with a dashboard watching, stops it the way the daemon
// does — Drain, the listener, Close — and asserts the process is back to
// the goroutines it started with: no shard worker, loop, pump or feeder
// survives the production shutdown path.
func TestDaemonShutdownLeaksNoGoroutines(t *testing.T) {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	before := runtime.NumGoroutine()

	dir := t.TempDir()
	cfg := node.Config{MaxChannels: 8, Continual: true, AbsorbWeight: 0.25, AbsorbEvery: time.Millisecond,
		SnapshotDir: dir + "/snap", SnapshotEvery: 5 * time.Millisecond, WALDir: dir + "/wal", LedgerDir: dir + "/ledger", LedgerBatch: 4,
		Pool: serve.Config{Shards: 4, QueueDepth: 32, Batch: 4}}
	_, srv, stop := startNode(t, cfg, nil)
	defer stop()
	acts, auds := testSeries(13, 8)
	var lines strings.Builder
	for i := range acts {
		lines.WriteString(observeLine(acts[i], auds[i]) + "\n")
	}
	watch, err := http.Get(srv.URL + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	for _, ch := range []string{"a", "b", "c"} {
		postObserve(t, srv, ch, lines.String())
	}
	conn, _ := dialLive(t, srv.URL+"/live/d", nil) // left open: Drain must cut it
	sendObs(t, conn, acts[0], auds[0])
	readText(t, conn)

	stop()
	io.Copy(io.Discard, watch.Body) // Drain ended the stream
	conn.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before the node, %d after its shutdown:\n%.8000s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
