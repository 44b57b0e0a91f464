package live

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/serve"
	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// fakeDetector is a deterministic serve.Detector: the nth observation on
// a channel scores n, anomalous when even, and an action[0] < 0 is a
// detector error. It keeps the ingest tests independent of training.
type fakeDetector struct {
	mu sync.Mutex
	n  int
}

func (d *fakeDetector) Observe(action, audience []float64) (aovlis.Result, error) {
	d.mu.Lock()
	d.n++
	n := d.n
	d.mu.Unlock()
	if len(action) > 0 && action[0] < 0 {
		return aovlis.Result{}, fmt.Errorf("fake: poisoned segment")
	}
	return aovlis.Result{Anomaly: n%2 == 0, Score: float64(n), Exact: true, Path: "fake"}, nil
}

// newIngestServer builds a pool of fake detectors behind an IngestHandler
// on a real listener (Upgrade needs http.Hijacker, so a served connection,
// not a ResponseRecorder).
func newIngestServer(t *testing.T, hub *Hub, ensure func(string) error, channels ...string) (*wiretest.Server, *serve.DetectorPool) {
	t.Helper()
	pool, err := serve.NewDetectorPool(serve.Config{Shards: 1, QueueDepth: 64, Policy: serve.Block})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	t.Cleanup(func() { pool.Close() })
	for _, id := range channels {
		if err := pool.Attach(id, &fakeDetector{}); err != nil {
			t.Fatalf("attach %s: %v", id, err)
		}
	}
	mux := &wire.Mux{}
	mux.Handle("/live/", &IngestHandler{Pool: pool, Hub: hub, Ensure: ensure, Window: 4})
	srv := wiretest.NewServer(t, mux)
	t.Cleanup(hub.Close)
	return srv, pool
}

// dialIngest dials, retrying the 409 that a reconnect can hit while the
// server is still tearing down the previous session.
func dialIngest(t *testing.T, url string, lastSeq uint64) (*Conn, *http.Response) {
	t.Helper()
	hdr := http.Header{}
	if lastSeq > 0 {
		hdr.Set(LastSeqHeader, strconv.FormatUint(lastSeq, 10))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, resp, err := Dial(url, hdr)
		if err == nil {
			return conn, resp
		}
		if resp != nil && resp.StatusCode == http.StatusConflict && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		t.Fatalf("dial %s: %v", url, err)
	}
}

func sendObservation(t *testing.T, conn *Conn, action float64) {
	t.Helper()
	b, err := json.Marshal(Observation{Action: []float64{action}, Audience: []float64{1}})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := conn.WriteMessage(OpText, b); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func readDecision(t *testing.T, conn *Conn) Decision {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatalf("read decision: %v", err)
	}
	var d Decision
	if err := json.Unmarshal(msg, &d); err != nil {
		t.Fatalf("decode %q: %v", msg, err)
	}
	return d
}

// TestIngestEndToEnd drives the full handler in-package: upgrade, pump,
// per-message decisions in order, sequences assigned 1..n, and the fake
// detector's deterministic verdicts on the wire.
func TestIngestEndToEnd(t *testing.T) {
	srv, _ := newIngestServer(t, NewHub(HubConfig{}), nil, "alpha")
	conn, resp := dialIngest(t, srv.URL+"/live/alpha", 0)
	defer conn.Close()
	if got := resp.Header.Get(ResumeHeader); got != "0" {
		t.Fatalf("fresh channel advertised floor %q, want 0", got)
	}
	if conn.NetConn() == nil {
		t.Fatal("NetConn returned nil")
	}
	for i := 1; i <= 5; i++ {
		sendObservation(t, conn, float64(i))
	}
	for i := 1; i <= 5; i++ {
		d := readDecision(t, conn)
		if d.Channel != "alpha" || d.Seq != uint64(i) || d.Score != float64(i) || !d.Exact || d.Path != "fake" {
			t.Fatalf("decision %d = %+v", i, d)
		}
		if d.Anomaly != (i%2 == 0) {
			t.Fatalf("decision %d anomaly=%v", i, d.Anomaly)
		}
	}
}

// TestIngestResumeReplay covers the reconnect contract end to end: drop
// the connection with decisions unread, reconnect with Last-Seq, and the
// ring replays exactly the missed suffix before the live stream resumes.
func TestIngestResumeReplay(t *testing.T) {
	srv, _ := newIngestServer(t, NewHub(HubConfig{}), nil, "beta")
	conn, _ := dialIngest(t, srv.URL+"/live/beta", 0)
	for i := 1; i <= 4; i++ {
		sendObservation(t, conn, float64(i))
	}
	// Read only the first two decisions, then drop the connection: seqs 3
	// and 4 are accepted server-side but never delivered.
	for i := 1; i <= 2; i++ {
		if d := readDecision(t, conn); d.Seq != uint64(i) {
			t.Fatalf("pre-drop decision %d = %+v", i, d)
		}
	}
	conn.Close()

	conn2, resp := dialIngest(t, srv.URL+"/live/beta", 2)
	defer conn2.Close()
	floor, err := strconv.ParseUint(resp.Header.Get(ResumeHeader), 10, 64)
	if err != nil || floor != 4 {
		t.Fatalf("resume floor = %q, want 4", resp.Header.Get(ResumeHeader))
	}
	for i := 3; i <= 4; i++ {
		d := readDecision(t, conn2)
		if d.Seq != uint64(i) || d.Score != float64(i) {
			t.Fatalf("replayed decision = %+v, want seq %d", d, i)
		}
	}
	// The session is live again: the next observation continues the
	// sequence where the first connection left off.
	sendObservation(t, conn2, 9)
	if d := readDecision(t, conn2); d.Seq != 5 || d.Score != 5 {
		t.Fatalf("post-resume decision = %+v, want seq 5", d)
	}
}

// TestIngestRefusals pins every non-101 answer the endpoint gives:
// missing/nested channel, malformed Last-Seq, unknown channel without an
// Ensure hook, a failing Ensure hook, a busy channel, and a Last-Seq
// ahead of the server's floor (which must advertise the real floor).
func TestIngestRefusals(t *testing.T) {
	srv, _ := newIngestServer(t, NewHub(HubConfig{}), nil, "busy")

	get := func(path string, hdr http.Header) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		for k, v := range hdr {
			req.Header[k] = v
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := get("/live/", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty channel: %d", resp.StatusCode)
	}
	if resp := get("/live/a/b", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("nested channel: %d", resp.StatusCode)
	}
	if resp := get("/live/busy", http.Header{LastSeqHeader: []string{"nope"}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Seq: %d", resp.StatusCode)
	}
	if resp := get("/live/ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown channel without Ensure: %d", resp.StatusCode)
	}
	if _, resp, err := Dial(srv.URL+"/live/busy", http.Header{LastSeqHeader: []string{"7"}}); err == nil ||
		resp == nil || resp.StatusCode != http.StatusConflict || resp.Header.Get(ResumeHeader) != "0" {
		t.Fatalf("ahead-of-floor: err %v resp %+v, want 409 with floor 0", err, resp)
	}

	conn, _ := dialIngest(t, srv.URL+"/live/busy", 0)
	defer conn.Close()
	if _, resp, err := Dial(srv.URL+"/live/busy", nil); err == nil || resp == nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("busy channel: err %v resp %+v, want 409", err, resp)
	}

	// Admission reject answers 429 + Retry-After before the upgrade and
	// before Ensure: a refused stream on a new channel id must not create
	// the channel.
	opool, err := serve.NewDetectorPool(serve.Config{Shards: 1, QueueDepth: 4, Policy: serve.Block,
		Admission: serve.AdmissionConfig{Enabled: true, RejectHighFrac: 0.75, RejectLowFrac: 0.2}})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate); opool.Close() })
	if err := opool.Attach("slow", gatedDetector{gate}); err != nil {
		t.Fatalf("attach: %v", err)
	}
	for i := 0; opool.AdmissionState() != serve.AdmitReject; i++ {
		if _, err := opool.Submit("slow", []float64{1}, []float64{1}); err != nil && i > 16 {
			t.Fatalf("pool not driven to reject: %v (state %v)", err, opool.AdmissionState())
		}
	}
	ensured := 0
	osrv := wiretest.NewServer(t, &IngestHandler{Pool: opool, Hub: NewHub(HubConfig{}),
		Ensure: func(id string) error { ensured++; return opool.Attach(id, &fakeDetector{}) }})
	_, resp, err := Dial(osrv.URL+"/live/newcomer", nil)
	if err == nil || resp == nil || resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("overloaded pool: err %v resp %+v, want 429 with Retry-After", err, resp)
	}
	if chans := opool.Channels(); ensured != 0 || len(chans) != 1 {
		t.Fatalf("refused new-id stream ran Ensure %d times and left channels %v", ensured, chans)
	}
}

// gatedDetector blocks every Observe until its gate is closed.
type gatedDetector struct{ gate chan struct{} }

func (g gatedDetector) Observe(action, audience []float64) (aovlis.Result, error) {
	<-g.gate
	return aovlis.Result{Exact: true, Path: "gated"}, nil
}

// TestIngestEnsureError covers the Ensure hook's refusal path.
func TestIngestEnsureError(t *testing.T) {
	ensure := func(id string) error { return fmt.Errorf("no capacity for %s", id) }
	srv, _ := newIngestServer(t, NewHub(HubConfig{}), ensure)
	resp, err := http.Get(srv.URL + "/live/any")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failing Ensure: %d, want 503", resp.StatusCode)
	}
}

// TestIngestBadObservation: a malformed message gets an error decision
// with seq 0 (not accepted, safe to resend) and the stream stays up.
func TestIngestBadObservation(t *testing.T) {
	srv, _ := newIngestServer(t, NewHub(HubConfig{}), nil, "gamma")
	conn, _ := dialIngest(t, srv.URL+"/live/gamma", 0)
	defer conn.Close()
	if err := conn.WriteMessage(OpText, []byte("{not json")); err != nil {
		t.Fatalf("write: %v", err)
	}
	d := readDecision(t, conn)
	if d.Seq != 0 || d.Error == "" || !strings.Contains(d.Error, "bad observation") {
		t.Fatalf("bad-observation decision = %+v", d)
	}
	sendObservation(t, conn, 1)
	if d := readDecision(t, conn); d.Seq != 1 || d.Error != "" {
		t.Fatalf("decision after bad observation = %+v", d)
	}
}

// TestIngestDetectorError: a detector failure is reported on the wire
// with the outcome's journal seq semantics (seq 0 — not ringed).
func TestIngestDetectorError(t *testing.T) {
	srv, _ := newIngestServer(t, NewHub(HubConfig{}), nil, "delta")
	conn, _ := dialIngest(t, srv.URL+"/live/delta", 0)
	defer conn.Close()
	sendObservation(t, conn, -1)
	d := readDecision(t, conn)
	if d.Error == "" || !strings.Contains(d.Error, "poisoned") {
		t.Fatalf("detector-error decision = %+v", d)
	}
}

// TestIngestHubCloseCutsConnection: Hub.Close must close the bound
// connection (Session.Bind) so a parked handler read loop unblocks — the
// race-clean-teardown half of the live contract.
func TestIngestHubCloseCutsConnection(t *testing.T) {
	hub := NewHub(HubConfig{})
	srv, _ := newIngestServer(t, hub, nil, "epsilon")
	conn, _ := dialIngest(t, srv.URL+"/live/epsilon", 0)
	defer conn.Close()
	hub.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := conn.ReadMessage(); err == nil {
		t.Fatal("read survived Hub.Close; want connection cut")
	}
	// And the hub refuses new sessions once closed.
	if _, err := hub.Acquire("epsilon"); err != ErrHubClosed {
		t.Fatalf("Acquire after Close: %v, want ErrHubClosed", err)
	}
}

// TestCloseErrorString pins both CloseError renderings.
func TestCloseErrorString(t *testing.T) {
	if got := (&CloseError{Code: CloseNormal}).Error(); !strings.Contains(got, "1000") {
		t.Fatalf("no-reason CloseError = %q", got)
	}
	if got := (&CloseError{Code: CloseProtocolError, Reason: "boom"}).Error(); !strings.Contains(got, "boom") {
		t.Fatalf("reasoned CloseError = %q", got)
	}
}

// TestDialRefusals covers the client-side dial error branches: bad URL,
// unsupported scheme, unreachable host.
func TestDialRefusals(t *testing.T) {
	if _, _, err := Dial("://nope", nil); err == nil {
		t.Fatal("bad URL dialed")
	}
	if _, _, err := Dial("ftp://example.test/live/a", nil); err == nil || !strings.Contains(err.Error(), "unsupported scheme") {
		t.Fatalf("ftp dial: %v", err)
	}
	if _, _, err := DialTimeout("http://127.0.0.1:1/live/a", nil, 50*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	// wire.HostPort defaults the port: a portless IPv6 literal reaches the
	// TCP dial as [::1]:80 (refused here) instead of failing on "missing
	// port in address".
	_, _, err := DialTimeout("http://[::1]/live/a", nil, 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "[::1]:80") || strings.Contains(err.Error(), "missing port") {
		t.Fatalf("portless IPv6 dial: %v", err)
	}
}

// TestIngestReplayIsByteIdentical: the resume ring keeps decisions, not
// lines, so Replay re-encodes them — and the lines a reconnect replays must
// be the bytes first sent, warm-up and non-finite-score verdicts included.
func TestIngestReplayIsByteIdentical(t *testing.T) {
	pool, err := serve.NewDetectorPool(serve.Config{Shards: 1, QueueDepth: 16, Policy: serve.Block})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := pool.Attach("ch", &scriptedDetector{}); err != nil {
		t.Fatal(err)
	}
	hub := NewHub(HubConfig{})
	defer hub.Close()
	srv := wiretest.NewServer(t, &IngestHandler{Pool: pool, Hub: hub, Window: 4})

	const n = 6
	conn, _ := dialIngest(t, srv.URL+"/live/ch", 0)
	var sent []string
	for i := 0; i < n; i++ {
		sendObservation(t, conn, float64(i))
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, string(msg))
	}
	conn.Close()
	for _, want := range []string{`"warmup":true`, `"error":"score is not finite: +Inf"`, `"error":"score is not finite: NaN"`} {
		if !strings.Contains(strings.Join(sent, "\n"), want) {
			t.Fatalf("no sent line carries %s: %q", want, sent)
		}
	}

	conn2, _ := dialIngest(t, srv.URL+"/live/ch", 0)
	defer conn2.Close()
	for i, want := range sent {
		conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, msg, err := conn2.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if string(msg) != want {
			t.Fatalf("replayed line %d:\n got  %s\n sent %s", i, msg, want)
		}
	}
}

// scriptedDetector returns a warm-up verdict, then a +Inf score, a NaN
// score and ordinary verdicts.
type scriptedDetector struct{ n int }

func (d *scriptedDetector) Observe(action, audience []float64) (aovlis.Result, error) {
	d.n++
	switch d.n {
	case 1:
		return aovlis.Result{Warmup: true}, nil
	case 2:
		return aovlis.Result{Anomaly: true, Score: math.Inf(1), Exact: true, Path: "exact"}, nil
	case 3:
		return aovlis.Result{Score: math.NaN(), Exact: true, Path: "exact"}, nil
	}
	return aovlis.Result{Anomaly: d.n%2 == 0, Score: 1 / float64(d.n), Exact: true, Path: "tier-skip"}, nil
}
