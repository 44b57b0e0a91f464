package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/stream/live"
)

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from spec.go; regenerate it with `go run -C cmd/aovlis-bench . spec > BENCHMARK.json`")
	}
}

func TestScheduleIsAFunctionOfSecondsOnly(t *testing.T) {
	for _, w := range workloads {
		a, b := w.schedule(10), w.schedule(10)
		for c := 0; c < w.channels; c++ {
			if a.total(c) != b.total(c) || a.total(c) <= seqLen {
				t.Fatalf("%s channel %d: totals %d vs %d", w.name, c, a.total(c), b.total(c))
			}
		}
		// In-flight segments stay at or below a quarter of the queue capacity
		// the workload's daemons have, so admission never sheds.
		queues := 2 * 256
		if inflight := w.channels * clientWindow; inflight*4 > queues {
			t.Errorf("%s: %d in flight exceeds a quarter of %d queue slots", w.name, inflight, queues)
		}
	}
	z := workloads[2].schedule(10)
	if workloads[2].mix != fleet || z.paced[0] <= 7*z.paced[7] {
		t.Errorf("routed-fleet channel 0 should carry 8x channel 7: %v", z.paced)
	}
	// However long the phase, a drift channel's paced window ends before its
	// first retrain can fire.
	d := workloads[3]
	if got := d.schedule(60).paced[0]; d.mix != drift || got != driftPaced {
		t.Errorf("drift-update paced window at -seconds 60: %d segments, want %d", got, driftPaced)
	}
}

func TestInputsAreDeterministicInTheSeed(t *testing.T) {
	ds, err := buildDataset(5)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads[3] // drift-update: both regimes
	gen := func(seed int64) *inputs {
		in, err := generate(w, 1, seed, ds.Pipeline)
		if err != nil {
			t.Fatal(err)
		}
		// A reference replay that cut channel c after 1000+c segments.
		want := make([][]aovlis.Result, w.channels)
		for c := range want {
			want[c] = make([]aovlis.Result, 1000+c)
		}
		in.finishPlan(want)
		if got := in.plan.total(1); got != 1001 || len(in.seq[1]) != 1001 {
			t.Fatalf("finishPlan left channel 1 at %d planned, %d streamed segments, want 1001", got, len(in.seq[1]))
		}
		return in
	}
	a, b, c := gen(5), gen(5), gen(6)
	if a.sha != b.sha {
		t.Errorf("same seed, different inputs: %s vs %s", a.sha, b.sha)
	}
	if a.sha == c.sha {
		t.Errorf("different seeds, same inputs: %s", a.sha)
	}
	// The stream leaves the INF segments for the TED ones at regimeSwitch.
	inf := int32(len(a.lines[0]) / 2)
	if a.seq[0][regimeSwitch-1] >= inf || a.seq[0][regimeSwitch] < inf {
		t.Errorf("regime switch not at segment %d: %d then %d (inf=%d)", regimeSwitch, a.seq[0][regimeSwitch-1], a.seq[0][regimeSwitch], inf)
	}
}

// scriptedConn answers every observation with a canned decision after a
// fixed server delay, and can stall the writer on one send.
type scriptedConn struct {
	sent       chan time.Time
	delay      time.Duration
	stallAt    int
	stallFor   time.Duration
	sendCalled int
}

func (c *scriptedConn) send([]byte) error {
	if c.sendCalled == c.stallAt {
		time.Sleep(c.stallFor)
	}
	c.sendCalled++
	c.sent <- time.Now()
	return nil
}
func (c *scriptedConn) flush() error { return nil }
func (c *scriptedConn) recv() ([]byte, error) {
	at, ok := <-c.sent
	if !ok {
		return nil, os.ErrClosed
	}
	time.Sleep(time.Until(at.Add(c.delay)))
	return []byte(`{"channel":"ch-0","seq":0,"anomaly":false,"score":0,"exact":false}`), nil
}
func (c *scriptedConn) close() {}

func TestOpenLoopTimesFromTheScheduledInstant(t *testing.T) {
	const n, rate = 20, 1000.0
	in := &inputs{
		lines: [][][]byte{{[]byte(`{}`)}},
		seq:   [][]int32{make([]int32, n)},
		plan:  plan{setup: []int{0}, paced: []int{n}, saturate: []int{0}},
	}
	// The writer is blocked for 30 ms on segment 5 (a stalled peer): the
	// schedule must not move, and the blocked segments must be charged the
	// wait.
	c := &scriptedConn{sent: make(chan time.Time, n), delay: time.Millisecond, stallAt: 5, stallFor: 30 * time.Millisecond}
	epoch := time.Now()
	r := newChannelRun(0, c, in, epoch)
	if err := r.openLoop(0, n, epoch.Add(5*time.Millisecond), 0, rate); err != nil {
		t.Fatal(err)
	}
	if err := r.await(n); err != nil {
		t.Fatal(err)
	}
	for k := 1; k < n; k++ {
		if got := r.due[k] - r.due[k-1]; got != int64(time.Second/rate) {
			t.Fatalf("segment %d scheduled %v after its predecessor, want a fixed 1ms", k, time.Duration(got))
		}
	}
	// Segment 6 was due 1 ms after segment 5 but could only be sent once
	// the 30 ms stall ended: its latency counts from the due instant.
	late := time.Duration(r.sentAt[6] - r.due[6])
	latency := time.Duration(r.recvAt[6] - r.due[6])
	if late < 25*time.Millisecond {
		t.Fatalf("segment 6 sent %v late, expected the stall to delay it", late)
	}
	if latency < late+c.delay {
		t.Errorf("latency %v of a segment sent %v late does not count from its scheduled instant", latency, late)
	}
	if fromSend := time.Duration(r.recvAt[6] - r.sentAt[6]); fromSend > 10*time.Millisecond {
		t.Errorf("segment 6 took %v from its actual send; the test's stall leaked into the server side", fromSend)
	}
}

func TestQuantilesAndMedian(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1) // 1..100, already sorted
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {0, 1}, {1, 100}} {
		if got := quantile(v, tc.q); got != tc.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
}

// A stall that covers a minority of the slices does not move the slice
// estimator, where it would move a quantile over the whole phase.
func TestSliceQuantile(t *testing.T) {
	slice := func(scale float64) []float64 {
		v := make([]float64, 100)
		for i := range v {
			v[i] = scale * float64(i+1) / 100 // p50 = 0.5·scale, p90 = 0.9·scale
		}
		return v
	}
	quiet := pacedResult{slices: [][]float64{slice(1), slice(1), slice(1), slice(1), slice(1)}}
	stalled := pacedResult{slices: [][]float64{slice(1), slice(50), slice(1), slice(2), slice(1)}}
	for _, p := range []pacedResult{quiet, stalled} {
		if p50, p90 := p.sliceQuantile(0.5), p.sliceQuantile(0.9); p50 != 0.5 || p90 != 0.9 {
			t.Errorf("slice p50, p90 = %v, %v; want 0.5, 0.9", p50, p90)
		}
	}
	var whole []float64
	for _, s := range stalled.slices {
		whole = append(whole, s...)
	}
	if got := quantile(sortedCopy(whole), 0.9); got < 10 {
		t.Errorf("p90 over the whole stalled phase = %v; the test's stall is too small to show the difference", got)
	}
}

func TestProcParsers(t *testing.T) {
	// The command name may contain spaces and parentheses.
	stat := []byte("4242 (aov (lis) d) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 269 0 0 20 0 9 0 12345 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	ms, err := parseStatCPUMillis(stat)
	if err != nil || ms != 10000 { // (731 + 269) ticks at 100 Hz
		t.Errorf("parseStatCPUMillis = %v, %v; want 10000 ms", ms, err)
	}
	if _, err := parseStatCPUMillis([]byte("garbage")); err == nil {
		t.Error("malformed stat line accepted")
	}
	status := []byte("Name:\taovlisd\nVmPeak:\t  900000 kB\nVmHWM:\t   25600 kB\nVmRSS:\t   20000 kB\n")
	mb, err := parseStatusHWMMB(status)
	if err != nil || mb != 25 {
		t.Errorf("parseStatusHWMMB = %v, %v; want 25 MB", mb, err)
	}
	if _, err := parseStatusHWMMB([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

func TestPrometheusParser(t *testing.T) {
	text := `# HELP aovlis_pool_observed_total Segments scored successfully.
# TYPE aovlis_pool_observed_total counter
aovlis_pool_observed_total 12000
# TYPE aovlis_pool_queue_wait_seconds histogram
aovlis_pool_queue_wait_seconds_bucket{le="1e-06"} 0
aovlis_pool_queue_wait_seconds_bucket{le="+Inf"} 4
aovlis_pool_queue_wait_seconds_sum 0.002
aovlis_pool_queue_wait_seconds_count 4
aovlisr_node_segments_total{node="n0"} 700
aovlisr_node_segments_total{node="n1"} 300
`
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if s["aovlis_pool_observed_total"] != 12000 {
		t.Errorf("counter = %v", s["aovlis_pool_observed_total"])
	}
	if got := s.histMean("aovlis_pool_queue_wait_seconds"); got != 0.0005 {
		t.Errorf("histogram mean = %v, want 0.0005", got)
	}
	if got := s.histMean("absent"); got != 0 {
		t.Errorf("mean of an absent histogram = %v", got)
	}
	if s[`aovlisr_node_segments_total{node="n1"}`] != 300 {
		t.Error("labelled series not kept under its exposed name")
	}
	if _, err := parseProm(strings.NewReader("no_value_here\n")); err == nil {
		t.Error("malformed exposition accepted")
	}
}

func TestSpanSelfTime(t *testing.T) {
	// A segment root with three children; await has two children of its
	// own, one of which sticks out past its parent and is clipped.
	spans := []span{
		{Name: "segment", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "wire.decode", StartNs: 0, EndNs: 20, Parent: 0},
		{Name: "serve.submit", StartNs: 20, EndNs: 30, Parent: 0},
		{Name: "serve.await", StartNs: 30, EndNs: 90, Parent: 0},
		{Name: "aovlis.observe", StartNs: 40, EndNs: 70, Parent: 3},
		{Name: "live.publish", StartNs: 85, EndNs: 95, Parent: 3},
	}
	want := []int64{10, 20, 10, 25, 30, 10}
	got := selfTimes(spans)
	var sum int64
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
		sum += got[i]
	}
	// Self times of a tree whose children stay inside their parents add up
	// to the root; the clipped 5 ns is the only excess here.
	if sum != 100+5 {
		t.Errorf("self times sum to %d, want root 100 + 5 clipped", sum)
	}
}

func TestRecorderExportsParents(t *testing.T) {
	rec := newRecorder(1, 3)
	for seq := 0; seq < 3; seq++ {
		rec.segment(0, seq, seq != 1) // segment 1 is replayed with spans off
		root := rec.begin()
		s := rec.begin()
		rec.end(spSubmit, 0, s)
		w := rec.begin()
		rec.end(spWAL, 0, w) // recorded after its parent, as the pool does not
		rec.end(spSegment, 0, root)
	}
	spans := rec.export()
	if len(spans) != 6 {
		t.Fatalf("%d spans exported, want 6", len(spans))
	}
	for _, s := range spans {
		switch s.Name {
		case "segment":
			if s.Parent != -1 {
				t.Errorf("root has parent %d", s.Parent)
			}
		case "serve.submit":
			if p := spans[s.Parent]; p.Name != "segment" || p.Seq != s.Seq {
				t.Errorf("submit of seq %d hangs under %+v", s.Seq, p)
			}
		case "wal.append":
			if p := spans[s.Parent]; p.Name != "serve.submit" || p.Seq != s.Seq {
				t.Errorf("wal append of seq %d hangs under %+v", s.Seq, p)
			}
		}
	}
	var off *recorder
	off.end(spSegment, 0, off.begin()) // spans off: must be a no-op
}

// lineMatches judges a raw decision line the way the channel reader and
// check do together: parse, then compare with the reference.
func lineMatches(raw []byte, wantSeq uint64, want aovlis.Result) bool {
	var d live.Decision
	if err := json.Unmarshal(raw, &d); err != nil {
		return false
	}
	return verdictMatches(&d, wantSeq, want)
}

func TestOracleCountsAFlippedByte(t *testing.T) {
	want := aovlis.Result{Anomaly: true, Score: 0.8312345678901234, Exact: true, Path: "exact"}
	line, err := json.Marshal(decisionOf("ch-0", 41, want))
	if err != nil {
		t.Fatal(err)
	}
	if !lineMatches(line, 41, want) {
		t.Fatalf("captured line %s does not match its own verdict", line)
	}
	if lineMatches(line, 42, want) {
		t.Error("wrong seq accepted")
	}
	// Flip one bit in every byte of the payload's values in turn: each
	// corrupted line must be counted, whether it still parses or not.
	for _, field := range []string{"0.8312345678901234", "true", "exact\"", "41"} {
		at := bytes.LastIndex(line, []byte(field))
		if at < 0 {
			t.Fatalf("field %q not in %s", field, line)
		}
		for i := at; i < at+len(field); i++ {
			bad := append([]byte(nil), line...)
			bad[i] ^= 0x01
			if lineMatches(bad, 41, want) {
				t.Errorf("flipped byte %d accepted: %s", i, bad)
			}
		}
	}
	for _, refused := range []string{`"error":"boom"`, `"dropped":true`, `"rejected":true`} {
		bad := append(append([]byte(nil), line[:len(line)-1]...), []byte(","+refused+"}")...)
		if lineMatches(bad, 41, want) {
			t.Errorf("%s line accepted", refused)
		}
	}
}

func TestCompare(t *testing.T) {
	defs := []metricDef{
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower", SameSeed: 0.10},
		{Name: "capacity_seg_s", Unit: "seg/s", Better: "higher", SameSeed: 0.07},
	}
	docs := func(names ...string) []document {
		for i, n := range names {
			names[i] = filepath.Join("testdata", n)
		}
		d, err := readDocs(names)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, tc := range []struct {
		name        string
		base, fresh []document
		code        int
		want        []string
	}{
		{"same within bounds", docs("base1.json", "base2.json"), docs("new_ok.json"), 0,
			[]string{"latency_p50_ms", "+2.86%  ok", "capacity_seg_s", "failed_share"}},
		{"capacity fell past its bound", docs("base1.json", "base2.json"), docs("new_worse.json"), 1,
			[]string{"capacity_seg_s", "+10.00%  worse", "latency_p50_ms"}},
		{"a failed verdict is worse whatever the speed", docs("base1.json"), docs("new_failed.json"), 1,
			[]string{"failed_share", "worse"}},
		{"one failed run among three is not outvoted", docs("base1.json", "base2.json", "base1.json"),
			docs("new_ok.json", "new_failed.json", "new_ok.json"), 1,
			[]string{"0.001000", "worse"}},
		{"a side that disagrees with itself resolves nothing", docs("base1.json", "base_noisy.json"), docs("new_worse.json"), 0,
			[]string{"capacity_seg_s", "unresolved"}},
		{"a metric one new file lacks", docs("base1.json"), docs("new_ok.json", "new_partial.json"), 1,
			[]string{"capacity_seg_s", "missing", "latency_p50_ms"}},
		{"a workload the new side lacks", docs("base1.json"), []document{{}}, 1,
			[]string{"direct-steady", "missing"}},
	} {
		var out bytes.Buffer
		if code := compareDocs(&out, defs, tc.base, tc.fresh); code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q\n%s", tc.name, w, out.String())
			}
		}
	}
}

func TestCompareArguments(t *testing.T) {
	base, fresh := filepath.Join("testdata", "base1.json"), filepath.Join("testdata", "new_ok.json")
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"separator", []string{base, "--", fresh}, 0, "ok"},
		{"two files without a separator", []string{base, fresh}, 0, "ok"},
		{"one side missing", []string{base, "--"}, 2, "usage"},
		{"unreadable file", []string{base, "--", filepath.Join("testdata", "absent.json")}, 2, "absent.json"},
	} {
		var out bytes.Buffer
		if code := compareMain(tc.args, &out); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit code %d, want %d with %q\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
