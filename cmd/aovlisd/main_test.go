package main

// httptest coverage for the daemon's HTTP surface (ISSUE 5 satellite): the
// NDJSON observe stream (pipelined and synchronous), per-channel stats,
// the channel-snapshot migration pair, on-demand pool snapshots and the
// health endpoint — happy paths and error paths. Every test opens the node
// the daemon runs (node.Open) and serves node.Handler, so the suite drives
// the production assembly, mux and teardown.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/ledger"
	"aovlis/internal/mat"
	"aovlis/internal/node"
	"aovlis/internal/serve"
	"aovlis/internal/snapshot/manifest"
	"aovlis/internal/wal"
	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// testTemplate trains a small detector once for the whole suite.
var testTemplate struct {
	once sync.Once
	det  *aovlis.Detector
	err  error
}

const (
	testActionDim   = 16
	testAudienceDim = 6
)

// testSeries builds a deterministic normal feature stream.
func testSeries(seed int64, n int) (actions, audience [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		f := make([]float64, testActionDim)
		f[(i/4)%6] = 1
		for j := range f {
			f[j] += 0.02 + 0.01*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, testAudienceDim)
		for j := range a {
			a[j] = 0.3 + 0.03*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}
	return actions, audience
}

func template(t *testing.T) *aovlis.Detector {
	t.Helper()
	testTemplate.once.Do(func() {
		cfg := aovlis.DefaultConfig(testActionDim, testAudienceDim)
		cfg.HiddenI, cfg.HiddenA = 12, 8
		cfg.SeqLen = 4
		cfg.Epochs = 3
		actions, audience := testSeries(7, 90)
		testTemplate.det, testTemplate.err = aovlis.Train(actions, audience, cfg)
	})
	if testTemplate.err != nil {
		t.Fatal(testTemplate.err)
	}
	return testTemplate.det
}

// testConfig is the suite's usual node: two shards, and batch as both the
// micro-batching cap and the ingest planes' pipelining depth.
func testConfig(maxChannels, batch int) node.Config {
	return node.Config{MaxChannels: maxChannels,
		Pool: serve.Config{Shards: 2, QueueDepth: 64, Batch: batch}}
}

// startNode opens a node over the suite's template and serves its handler
// (behind wrap, when a test wants to watch the requests go by). stop ends
// both in the daemon's order — Drain, the listener, Close — and is safe to
// call again.
func startNode(t *testing.T, cfg node.Config, wrap func(wire.Handler) wire.Handler) (n *node.Node, srv *wiretest.Server, stop func()) {
	t.Helper()
	cfg.Logf = t.Logf
	n, err := node.Open(template(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := n.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv = wiretest.NewServer(t, h)
	var once sync.Once
	return n, srv, func() {
		once.Do(func() {
			n.Drain()
			srv.Close()
			if err := n.Close(); err != nil {
				t.Errorf("closing node: %v", err)
			}
		})
	}
}

// openNode is startNode stopped by the test's cleanup.
func openNode(t *testing.T, cfg node.Config) (*node.Node, *wiretest.Server) {
	t.Helper()
	n, srv, stop := startNode(t, cfg, nil)
	t.Cleanup(stop)
	return n, srv
}

// observeLine encodes one NDJSON observation.
func observeLine(action, audience []float64) string {
	b, _ := json.Marshal(wire.Observation{Action: action, Audience: audience})
	return string(b)
}

// postObserve streams body to the observe endpoint and decodes the NDJSON
// response lines.
func postObserve(t *testing.T, srv *wiretest.Server, id, body string) []wire.Decision {
	t.Helper()
	resp, err := http.Post(srv.URL+"/channels/"+id+"/observe", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("observe status %d: %s", resp.StatusCode, raw)
	}
	var out []wire.Decision
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var dec wire.Decision
		if err := json.Unmarshal(sc.Bytes(), &dec); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		out = append(out, dec)
	}
	return out
}

func TestObserveStreamsDecisions(t *testing.T) {
	for _, batch := range []int{0, 8} { // synchronous and pipelined handler
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			_, srv := openNode(t, testConfig(8, batch))
			actions, audience := testSeries(11, 12)
			var body strings.Builder
			for i := range actions {
				body.WriteString(observeLine(actions[i], audience[i]) + "\n")
			}
			decs := postObserve(t, srv, "alice", body.String())
			if len(decs) != 12 {
				t.Fatalf("got %d decisions, want 12", len(decs))
			}
			for i, dec := range decs {
				if dec.Seq != uint64(i) || dec.Channel != "alice" || dec.Error != "" {
					t.Fatalf("decision %d malformed: %+v", i, dec)
				}
				if wantWarm := i < 4; dec.Warmup != wantWarm {
					t.Fatalf("decision %d warmup=%v, want %v", i, dec.Warmup, wantWarm)
				}
				if !dec.Warmup && dec.Score == 0 {
					t.Fatalf("decision %d carries no score: %+v", i, dec)
				}
			}
		})
	}
}

func TestObserveErrorLines(t *testing.T) {
	_, srv := openNode(t, testConfig(8, 8))
	actions, audience := testSeries(13, 3)
	body := observeLine(actions[0], audience[0]) + "\n" +
		"this is not json\n" +
		observeLine([]float64{1, 2}, audience[1]) + "\n" + // wrong dims
		"\n" + // blank lines are skipped
		observeLine(actions[2], audience[2]) + "\n"
	decs := postObserve(t, srv, "bob", body)
	if len(decs) != 4 {
		t.Fatalf("got %d decisions, want 4", len(decs))
	}
	if decs[0].Error != "" {
		t.Fatalf("line 0 unexpectedly failed: %+v", decs[0])
	}
	if !strings.Contains(decs[1].Error, "bad observation line") {
		t.Fatalf("line 1 should be a parse error: %+v", decs[1])
	}
	if !strings.Contains(decs[2].Error, "feature dims") {
		t.Fatalf("line 2 should be a dims error: %+v", decs[2])
	}
	if decs[3].Error != "" || decs[3].Seq != 3 {
		t.Fatalf("line 3 should score cleanly with ordered seq: %+v", decs[3])
	}
}

// TestObserveNonFiniteScore is the hostile-score repro end to end over
// HTTP: ten ordinary lines, one whose audience features are all 1e200 —
// the detector scores it +Inf — and three more, posted as one NDJSON body. Every
// line is answered in order, the hostile one says its score is not finite
// and keeps its verdict, the channel counts all fourteen, and /watch carries
// the hostile verdict too.
func TestObserveNonFiniteScore(t *testing.T) {
	_, srv := openNode(t, testConfig(8, 8))
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/watch?channel=h", nil)
	if err != nil {
		t.Fatal(err)
	}
	watch, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()

	acts, auds := testSeries(47, 13)
	var body strings.Builder
	for i, k := 0, 0; i < 14; i++ {
		if i == 10 {
			body.WriteString(hostileLine() + "\n")
			continue
		}
		body.WriteString(observeLine(acts[k], auds[k]) + "\n")
		k++
	}
	decs := postObserve(t, srv, "h", body.String())
	if len(decs) != 14 {
		t.Fatalf("got %d decisions, want 14", len(decs))
	}
	verdicts := 0
	for i, d := range decs {
		switch {
		case d.Seq != uint64(i) || !d.Verdict():
			t.Fatalf("decision %d: %+v", i, d)
		case i == 10 && (!d.Anomaly || d.Path == "" || d.Score != 0 || !strings.Contains(d.Error, "score is not finite: +Inf")):
			t.Fatalf("hostile line: %+v, want an anomaly with its path and a not-finite error", d)
		case i != 10 && d.Error != "":
			t.Fatalf("decision %d errored: %+v", i, d)
		}
		if !d.Warmup {
			verdicts++
		}
	}
	resp, err := http.Get(srv.URL + "/channels/h/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.ChannelStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.Observed != 14 || st.Errors != 0 {
		t.Fatalf("stats %+v (%v), want 14 observed", st, err)
	}

	sc := bufio.NewScanner(watch.Body)
	hostile := false
	for events := 0; events < verdicts && sc.Scan(); {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		events++
		var d wire.Decision
		if err := wire.DecodeDecision([]byte(data), &d); err != nil || !d.Verdict() {
			t.Fatalf("watch event %q: %+v (%v)", data, d, err)
		}
		hostile = hostile || strings.Contains(d.Error, "not finite") && d.Anomaly
	}
	if !hostile {
		t.Fatalf("/watch never carried the hostile verdict (scan err %v)", sc.Err())
	}
}

// TestObserveOversizeLineAbortsOnlyItsStream pins the edge of the line
// bound: a line past wire.MaxLine ends its own request with a final
// "request stream aborted" decision line, while a second channel streaming
// at the same time keeps getting verdicts — hostile input degrades a
// channel, never the process.
func TestObserveOversizeLineAbortsOnlyItsStream(t *testing.T) {
	_, srv := openNode(t, testConfig(8, 8))
	actions, audience := testSeries(19, 8)
	steady, hostile := planes[0].open(t, srv, "steady"), planes[0].open(t, srv, "hostile")
	next := 0
	steadyVerdict := func() {
		t.Helper()
		steady.send(observeLine(actions[next], audience[next]))
		if dec := steady.recv(); dec.Channel != "steady" || dec.Seq != uint64(next) || dec.Error != "" {
			t.Fatalf("steady decision %d: %+v", next, dec)
		}
		next++
	}
	steadyVerdict()

	hostile.send(observeLine(actions[0], audience[0]))
	if dec := hostile.recv(); dec.Seq != 0 || dec.Error != "" {
		t.Fatalf("hostile channel's first line should score cleanly: %+v", dec)
	}
	go hostile.send(strings.Repeat("x", wire.MaxLine)) // the terminator makes it MaxLine+1
	steadyVerdict()                                    // while the long line is in flight
	dec := hostile.recv()
	if dec.Channel != "hostile" || dec.Seq != 1 ||
		!strings.Contains(dec.Error, "request stream aborted") || !strings.Contains(dec.Error, "token too long") {
		t.Fatalf("want a final stream-aborted line for the oversize message, got %+v", dec)
	}
	hostile.abort()

	for next < len(actions) {
		steadyVerdict()
	}
}

func TestObserveRespectsChannelLimit(t *testing.T) {
	_, srv := openNode(t, testConfig(1, 0))
	actions, audience := testSeries(17, 1)
	postObserve(t, srv, "only", observeLine(actions[0], audience[0]))
	resp, err := http.Post(srv.URL+"/channels/overflow/observe", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (channel limit)", resp.StatusCode)
	}
}

func TestObserveMethodNotAllowed(t *testing.T) {
	_, srv := openNode(t, testConfig(8, 0))
	resp, err := http.Get(srv.URL + "/channels/x/observe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}

func TestStatsAndList(t *testing.T) {
	_, srv := openNode(t, testConfig(8, 8))
	actions, audience := testSeries(19, 10)
	var body strings.Builder
	for i := range actions {
		body.WriteString(observeLine(actions[i], audience[i]) + "\n")
	}
	postObserve(t, srv, "statsy", body.String())

	resp, err := http.Get(srv.URL + "/channels/statsy/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.ChannelStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Channel != "statsy" || st.Observed != 10 || st.Warmups != 4 {
		t.Fatalf("stats %+v, want 10 observed / 4 warmups", st)
	}
	if st.Batches == 0 || st.Batched != st.Observed {
		t.Fatalf("batched pool reported no batching activity: %+v", st)
	}

	resp, err = http.Get(srv.URL + "/channels/missing/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown channel stats status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/channels")
	if err != nil {
		t.Fatal(err)
	}
	var all []serve.ChannelStats
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all) != 1 || all[0].Channel != "statsy" || all[0].BatchOccupancy < 1 {
		t.Fatalf("channel list %+v, want statsy with occupancy ≥ 1", all)
	}
}

func TestSnapshotEndpointWithoutDir(t *testing.T) {
	_, srv := openNode(t, testConfig(8, 0))
	resp, err := http.Post(srv.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("status %d, want 412 without -snapshot-dir", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /snapshot status %d, want 405", resp.StatusCode)
	}
}

func TestSnapshotEndpointCommits(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(8, 8)
	cfg.SnapshotDir = dir
	_, srv := openNode(t, cfg)
	actions, audience := testSeries(23, 8)
	var body strings.Builder
	for i := range actions {
		body.WriteString(observeLine(actions[i], audience[i]) + "\n")
	}
	postObserve(t, srv, "persist", body.String())

	resp, err := http.Post(srv.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep serve.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Channels != 1 || rep.Bytes == 0 {
		t.Fatalf("snapshot report %+v, want 1 committed channel", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, manifest.Name)); err != nil {
		t.Fatalf("manifest not committed: %v", err)
	}

	// healthz must now report the snapshot age.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz %+v", health)
	}
	if _, ok := health["last_snapshot_age_seconds"]; !ok {
		t.Fatalf("healthz misses last_snapshot_age_seconds after a commit: %+v", health)
	}
	if health["snapshot_dir"] != dir {
		t.Fatalf("healthz snapshot_dir %v, want %v", health["snapshot_dir"], dir)
	}
}

// TestSnapshotSkipsWALTruncateOnLedgerFlushFailure pins the checkpoint
// commit order: journal segments may be deleted only after the verdict
// ledger has flushed. A flush failure must leave every sealed segment in
// place (WAL replay is the only way to rebuild the verdicts stuck in the
// failed pending batch); the next successful checkpoint truncates.
func TestSnapshotSkipsWALTruncateOnLedgerFlushFailure(t *testing.T) {
	snapDir, walDir, ledgerDir := t.TempDir(), t.TempDir(), t.TempDir()

	// The node boots on a journal left behind in tiny segments, so the
	// checkpoint's truncation has sealed files to remove, and with a huge
	// ledger batch, so every replayed verdict stays in the pending batch.
	actions, audience := testSeries(41, 60)
	j, err := wal.Open(walDir, wal.Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := range actions {
		if err := j.Append("flushfail", uint64(i+1), actions[i], audience[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(8, 0)
	cfg.SnapshotDir, cfg.WALDir, cfg.LedgerDir, cfg.LedgerBatch = snapDir, walDir, ledgerDir, 1<<20
	_, srv := openNode(t, cfg)

	segments := func() int {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}
	ledgerHead := func() (head ledger.RootInfo) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/ledger/root")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&head); err != nil {
			t.Fatal(err)
		}
		return head
	}
	checkpoint := func() {
		t.Helper()
		resp, err := http.Post(srv.URL+"/snapshot", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /snapshot status %d, want 200", resp.StatusCode)
		}
	}
	before := segments()
	if before < 3 {
		t.Fatalf("need sealed segments to observe truncation, got %d", before)
	}
	if ledgerHead().Pending == 0 {
		t.Fatal("no pending verdicts; the flush under test would be a no-op")
	}

	// Make the next batch's commit itself fail: a non-empty directory at
	// its staging name can be neither created afresh nor removed.
	staging := filepath.Join(ledgerDir, fmt.Sprintf("batch-%08d.blk.tmp", ledgerHead().Batches+1))
	if err := os.MkdirAll(filepath.Join(staging, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	checkpoint() // the snapshot must still commit on a ledger flush failure
	if got := segments(); got != before {
		t.Fatalf("WAL truncated to %d segments after a failed ledger flush, want %d kept", got, before)
	}

	// Heal the ledger: the next checkpoint flushes and truncates.
	if err := os.RemoveAll(staging); err != nil {
		t.Fatal(err)
	}
	checkpoint()
	if got := segments(); got != 1 {
		t.Fatalf("WAL has %d segments after a clean checkpoint, want 1", got)
	}
	if head := ledgerHead(); head.Pending != 0 || head.Entries == 0 {
		t.Fatalf("ledger not flushed after healing: %+v", head)
	}
}

func TestHealthzWithoutSnapshots(t *testing.T) {
	_, srv := openNode(t, testConfig(8, 0))
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz %+v", health)
	}
	if _, ok := health["snapshot_dir"]; ok {
		t.Fatalf("healthz reports a snapshot dir without one configured: %+v", health)
	}
}

// putSnapshot PUTs body as id's snapshot import on srv, naming floor in
// X-Aovlis-Resume unless it is "", and returns the status.
func putSnapshot(t *testing.T, srv *wiretest.Server, id string, body io.Reader, floor string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/channels/"+id+"/snapshot", body)
	if err != nil {
		t.Fatal(err)
	}
	if floor != "" {
		req.Header.Set(wire.ResumeHeader, floor)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// exportSnapshot GETs id's snapshot export from srv and returns it with
// the floor its X-Aovlis-Resume answers.
func exportSnapshot(t *testing.T, srv *wiretest.Server, id string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/channels/" + id + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export of %s: status %d err %v", id, resp.StatusCode, err)
	}
	return blob, resp.Header.Get(wire.ResumeHeader)
}

// detachChannel DELETEs id on srv and wants 200.
func detachChannel(t *testing.T, srv *wiretest.Server, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/channels/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detach of %s: status %d, want 200", id, resp.StatusCode)
	}
}

func TestChannelSnapshotMigration(t *testing.T) {
	_, srv := openNode(t, testConfig(8, 8))
	actions, audience := testSeries(29, 10)
	var body strings.Builder
	for i := range actions {
		body.WriteString(observeLine(actions[i], audience[i]) + "\n")
	}
	postObserve(t, srv, "mover", body.String())

	// Export: the stream must be a restorable detector snapshot, and the
	// floor it covers is the ten segments applied.
	blob, floor := exportSnapshot(t, srv, "mover")
	if _, err := serve.DecodeSnapshot("mover", bytes.NewReader(blob)); err != nil {
		t.Fatalf("exported stream is not restorable as mover: %v", err)
	}
	if floor != "10" {
		t.Fatalf("export answers floor %q, want 10", floor)
	}

	// Importing under a DIFFERENT id must be a 400: the export carries its
	// channel identity and the daemon rejects crossed streams before
	// anything attaches. So is an import that does not name the floor it
	// covers as a sequence.
	if code := putSnapshot(t, srv, "moved", bytes.NewReader(blob), floor); code != http.StatusBadRequest {
		t.Fatalf("cross-id import status %d, want 400", code)
	}
	for _, bad := range []string{"", "ten", "-1", "18446744073709551616"} {
		if code := putSnapshot(t, srv, "unnumbered", bytes.NewReader(blob), bad); code != http.StatusBadRequest {
			t.Fatalf("import at floor %q: status %d, want 400", bad, code)
		}
	}
	if got := channelList(t, srv); len(got) != 1 || got[0].Channel != "mover" {
		t.Fatalf("refused imports attached something: %+v", got)
	}

	// The migration flow proper: detach the source copy, re-import under
	// the same id, and the restored channel resumes with its lifetime
	// counters intact.
	detachChannel(t, srv, "mover")
	resp, err := http.Get(srv.URL + "/channels/mover/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats after detach status %d, want 404", resp.StatusCode)
	}
	if code := putSnapshot(t, srv, "mover", bytes.NewReader(blob), floor); code != http.StatusCreated {
		t.Fatalf("import status %d, want 201", code)
	}
	st, err := http.Get(srv.URL + "/channels/mover/stats")
	if err != nil {
		t.Fatal(err)
	}
	var cs serve.ChannelStats
	if err := json.NewDecoder(st.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if cs.Observed != 10 {
		t.Fatalf("migrated channel lost its lifetime counters: %+v", cs)
	}

	// Error paths: duplicate id conflicts, garbage rejects, unknown 404s,
	// wrong methods 405.
	if code := putSnapshot(t, srv, "mover", bytes.NewReader(blob), floor); code != http.StatusConflict {
		t.Fatalf("duplicate import status %d, want 409", code)
	}
	if code := putSnapshot(t, srv, "junk", strings.NewReader("garbage"), "0"); code != http.StatusBadRequest {
		t.Fatalf("garbage import status %d, want 400", code)
	}
	resp, err = http.Get(srv.URL + "/channels/nobody/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown export status %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/channels/mover/snapshot", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE snapshot status %d, want 405", resp.StatusCode)
	}
}

// TestChannelMoveKeepsOneNumbering moves a channel A→B→A the way the
// router does — export, import at the exported floor, detach — and a
// fresh channel in with an empty body: every segment is numbered once,
// in order, wherever it is scored.
func TestChannelMoveKeepsOneNumbering(t *testing.T) {
	_, a := openNode(t, testConfig(8, 8))
	_, b := openNode(t, testConfig(8, 8))
	actions, audience := testSeries(41, 12)
	next := 0
	observeOn := func(srv *wiretest.Server, id string, n int) {
		t.Helper()
		var body strings.Builder
		for i := 0; i < n; i++ {
			body.WriteString(observeLine(actions[next+i], audience[next+i]) + "\n")
		}
		for i, d := range postObserve(t, srv, id, body.String()) {
			if want := uint64(next + i + 1); d.WSeq != want {
				t.Fatalf("segment %d of %s numbered %d, want %d", next+i, id, d.WSeq, want)
			}
		}
		next += n
	}
	move := func(from, to *wiretest.Server, id string) {
		t.Helper()
		blob, floor := exportSnapshot(t, from, id)
		if floor != fmt.Sprint(next) {
			t.Fatalf("export of %s after %d segments answers floor %q", id, next, floor)
		}
		if code := putSnapshot(t, to, id, bytes.NewReader(blob), floor); code != http.StatusCreated {
			t.Fatalf("import of %s at %s: status %d, want 201", id, floor, code)
		}
		detachChannel(t, from, id)
	}
	observeOn(a, "x", 4)
	move(a, b, "x")
	observeOn(b, "x", 4)
	move(b, a, "x")
	observeOn(a, "x", 4)

	// An empty body attaches a fresh channel at the named floor.
	if code := putSnapshot(t, b, "fresh", nil, "7"); code != http.StatusCreated {
		t.Fatalf("fresh import at 7: status %d, want 201", code)
	}
	d := postObserve(t, b, "fresh", observeLine(actions[0], audience[0])+"\n")
	if len(d) != 1 || d[0].WSeq != 8 {
		t.Fatalf("first segment of a fresh channel attached at 7: %+v, want wseq 8", d)
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestChannelSnapshotImportBounded: a snapshot upload larger than the cap
// is cut off at the cap and answered 413, whatever the stream claims about
// itself — here one gob message announcing a length just past the cap, the
// shape that makes an unbounded decoder buffer the whole body.
func TestChannelSnapshotImportBounded(t *testing.T) {
	_, srv := openNode(t, testConfig(8, 8))
	const claimed = 64<<20 + 1024 // the node's import cap, and a little
	// gob's message-length prefix: byte count negated, then big-endian.
	prefix := []byte{0xFC, byte(claimed >> 24), byte(claimed >> 16 & 0xFF), byte(claimed >> 8 & 0xFF), byte(claimed & 0xFF)}
	body := io.MultiReader(bytes.NewReader(prefix), io.LimitReader(zeros{}, claimed))
	if code := putSnapshot(t, srv, "big", body, "0"); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized import status %d, want 413", code)
	}
	resp, err := http.Get(srv.URL + "/channels/big/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats of the refused channel status %d, want 404", resp.StatusCode)
	}
}

func TestChannelRoutes(t *testing.T) {
	_, srv := openNode(t, testConfig(8, 0))
	for path, want := range map[string]int{
		"/channels/":             http.StatusNotFound,
		"/channels/x":            http.StatusNotFound,
		"/channels/x/unknownépé": http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s status %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := http.Post(srv.URL+"/channels", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /channels status %d, want 405", resp.StatusCode)
	}
}
