package main

// httptest coverage for the telemetry and overload surface: the Prometheus
// /metrics exposition (format, bucket monotonicity, counters never
// decreasing across scrapes), 429 + Retry-After under admission reject,
// the rejection count in /channels, and a goroutine-leak assertion on
// graceful shutdown.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/serve"
	"aovlis/internal/stream/live"
)

// gatedDet blocks each Observe on a release channel; closing the channel
// opens the gate permanently.
type gatedDet struct {
	release   chan struct{}
	entered   chan struct{} // when set (buffered), signalled as each Observe parks
	closeOnce sync.Once
}

func (g *gatedDet) open() { g.closeOnce.Do(func() { close(g.release) }) }

func (g *gatedDet) Observe(action, audience []float64) (aovlis.Result, error) {
	if g.entered != nil {
		g.entered <- struct{}{}
	}
	<-g.release
	return aovlis.Result{Score: 0.1, Exact: true, Path: "exact"}, nil
}

// scrape fetches /metrics and returns the body plus every sample parsed
// into name{labels} → value.
func scrape(t *testing.T, srv *httptest.Server) (string, map[string]float64) {
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
	_, srv := newTestDaemon(t, 8, 0, "")
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

func TestMetricsDisabled(t *testing.T) {
	d, _ := newTestDaemon(t, 4, 0, "")
	srv := httptest.NewServer(d.handler(false, false))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /metrics returned %s, want 404", resp.Status)
	}
}

// newOverloadDaemon builds a daemon over a tiny admission-controlled pool
// with one gated channel, so tests can steer the pool through the
// admission states deterministically.
func newOverloadDaemon(t *testing.T) (*daemon, *httptest.Server, *gatedDet) {
	t.Helper()
	pool, err := serve.NewDetectorPool(serve.Config{Shards: 1, QueueDepth: 10, Policy: serve.Block,
		Admission: serve.AdmissionConfig{Enabled: true, RejectHighFrac: 0.9, RejectLowFrac: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedDet{release: make(chan struct{})}
	if err := pool.Attach("slow", g); err != nil {
		t.Fatal(err)
	}
	d := &daemon{pool: pool, template: template(t), maxChannels: 8,
		obsWindow: 1, started: time.Now(), hub: live.NewHub(live.HubConfig{})}
	srv := httptest.NewServer(d.handler(false, true))
	t.Cleanup(func() {
		g.open()
		d.hub.Close()
		srv.Close()
		pool.Close()
	})
	return d, srv, g
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
	d, srv, g := newOverloadDaemon(t)

	// One in-flight observation plus a backlog past the reject watermark.
	var outs []<-chan serve.Outcome
	overloaded := false
	for i := 0; i < 15; i++ {
		out, err := d.pool.Submit("slow", []float64{1}, []float64{1})
		if err != nil {
			overloaded = true
			break
		}
		outs = append(outs, out)
	}
	if !overloaded || d.pool.AdmissionState() != serve.AdmitReject {
		t.Fatalf("pool not driven to reject: overloaded=%v state=%v", overloaded, d.pool.AdmissionState())
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
	if chans := d.pool.Channels(); len(chans) != 1 {
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
	// refusals (the Submit above plus the refused stream on "slow").
	for i := 0; i < 3; i++ {
		g.release <- struct{}{}
	}
	pollUntil(t, "scoring and refusals visible in /channels", func() bool {
		for _, cs := range channelList(t, srv) {
			if cs.Channel == "slow" && cs.Observed == 3 && cs.Rejected == 1 && cs.Dropped == 0 {
				return true
			}
		}
		return false
	})
	if s := d.pool.AdmissionState(); s != serve.AdmitReject {
		t.Fatalf("admission state %v with the queue still above the low watermark, want reject", s)
	}

	// Drain everything; the pool must recover to normal and the
	// previously-rejected stream must now score.
	g.open()
	for _, out := range outs {
		<-out
	}
	pollUntil(t, "admission back to normal", func() bool {
		return d.pool.AdmissionState() == serve.AdmitNormal
	})
	decs := postObserve(t, srv, "slow", observeLine([]float64{1}, []float64{1})+"\n")
	if len(decs) != 1 || decs[0].Error != "" || decs[0].Rejected || decs[0].Dropped {
		t.Fatalf("post-recovery decision %+v", decs)
	}
}

// TestStatusForPoolErr pins the two refusals apart by their error alone: an
// admission rejection asks the client to retry, a queue-full drop does not.
func TestStatusForPoolErr(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("%w (channel %q, shard 0)", serve.ErrRejected, "ch"), http.StatusTooManyRequests},
		{fmt.Errorf("%w (queue full)", serve.ErrOverloaded), http.StatusServiceUnavailable},
		{serve.ErrClosed, http.StatusServiceUnavailable},
		{fmt.Errorf("%w: %q", serve.ErrUnknownChannel, "ch"), http.StatusNotFound},
	} {
		if got := statusForPoolErr(tc.err); got != tc.want {
			t.Errorf("statusForPoolErr(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// channelList decodes GET /channels.
func channelList(t *testing.T, srv *httptest.Server) []serve.ChannelStats {
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

// TestDaemonShutdownLeaksNoGoroutines runs traffic, tears the daemon down
// the way run() does (server first, then pool), and asserts no shard
// worker goroutine survives.
func TestDaemonShutdownLeaksNoGoroutines(t *testing.T) {
	pool, err := serve.NewDetectorPool(serve.Config{Shards: 4, QueueDepth: 32, Policy: serve.Block, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{pool: pool, template: template(t), maxChannels: 8,
		obsWindow: 4, started: time.Now(), hub: live.NewHub(live.HubConfig{})}
	srv := httptest.NewServer(d.handler(false, true))
	acts, auds := testSeries(13, 8)
	var lines strings.Builder
	for i := range acts {
		lines.WriteString(observeLine(acts[i], auds[i]) + "\n")
	}
	for _, ch := range []string{"a", "b", "c"} {
		postObserve(t, srv, ch, lines.String())
	}
	d.hub.Close()
	srv.Close()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		if !strings.Contains(string(buf[:n]), "serve.(*DetectorPool).runShard") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard workers leaked after shutdown:\n%s", fmt.Sprintf("%.4000s", string(buf[:n])))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
