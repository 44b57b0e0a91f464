package main

// Multi-process soak for the scale-out tier: real aovlisd processes, the
// in-process cluster router, a node killed with SIGKILL mid-stream. The
// gates are the ISSUE 8 acceptance criteria, tightened by ISSUE 9 now
// that every node journals its ingest and shares the journal dir with
// the router:
//
//   - zero accepted-segment loss: every line every stream accepted is
//     answered exactly once, in order, across the kill;
//   - bit-equality for EVERY channel — including the ones streaming
//     through the kill: failover restores the victim's checkpoint, then
//     replays its journal tail up to the delivered boundary, and parked
//     streams resubmit the rest, so the re-scored tail lands on exactly
//     the state an undisturbed run would have had. The former
//     at-least-last-checkpoint carve-out is gone.
//
// TestClusterThroughput is the §8 benchmark body: a 3-node tiered
// fleet behind the router driven by the open-loop HTTP loadgen, printing
// the machine-readable CLUSTER-RESULT line scripts/smoke.sh cluster gates.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/cluster"
	"aovlis/internal/mat"
	"aovlis/internal/serve/loadgen"
	"aovlis/internal/wire/wiretest"
)

const (
	soakActionDim   = 16
	soakAudienceDim = 6
)

// soakFixture builds the shared process fixtures once: the aovlisd and
// aovlisr binaries (race-instrumented when the test binary is) and a tiny
// trained detector every node loads, so all processes score with identical
// weights.
var soakFixture struct {
	once   sync.Once
	bin    string
	router string
	model  string
	err    error
}

func soakBinaries(t *testing.T) (bin, model string) {
	t.Helper()
	soakFixture.once.Do(func() {
		dir, err := os.MkdirTemp("", "aovlisr-soak-")
		if err != nil {
			soakFixture.err = err
			return
		}
		soakFixture.bin = filepath.Join(dir, "aovlisd")
		soakFixture.router = filepath.Join(dir, "aovlisr")
		for _, b := range []string{soakFixture.bin, soakFixture.router} {
			args := []string{"build", "-o", b}
			if raceEnabled {
				args = append(args, "-race")
			}
			args = append(args, "aovlis/cmd/"+filepath.Base(b))
			cmd := exec.Command("go", args...)
			if !raceEnabled {
				// With cgo on, a daemon that imported net would link libc:
				// TestDaemonsLinkNoTLS reads these binaries for that.
				cmd.Env = append(os.Environ(), "CGO_ENABLED=1")
			}
			if out, err := cmd.CombinedOutput(); err != nil {
				soakFixture.err = fmt.Errorf("building %s: %v\n%s", filepath.Base(b), err, out)
				return
			}
		}

		cfg := aovlis.DefaultConfig(soakActionDim, soakAudienceDim)
		cfg.HiddenI, cfg.HiddenA = 12, 8
		cfg.SeqLen = 4
		cfg.Epochs = 3
		actions, audience := soakSeries(7, 90)
		det, err := aovlis.Train(actions, audience, cfg)
		if err != nil {
			soakFixture.err = err
			return
		}
		soakFixture.model = filepath.Join(dir, "model.gob")
		f, err := os.Create(soakFixture.model)
		if err != nil {
			soakFixture.err = err
			return
		}
		if err := det.Save(f); err != nil {
			soakFixture.err = err
			return
		}
		soakFixture.err = f.Close()
	})
	if soakFixture.err != nil {
		t.Fatal(soakFixture.err)
	}
	return soakFixture.bin, soakFixture.model
}

// soakSeries builds a deterministic normal feature stream (the training
// fixture shape the daemon test suite uses).
func soakSeries(seed int64, n int) (actions, audience [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		f := make([]float64, soakActionDim)
		f[(i/4)%6] = 1
		for j := range f {
			f[j] += 0.02 + 0.01*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, soakAudienceDim)
		for j := range a {
			a[j] = 0.3 + 0.03*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}
	return actions, audience
}

// soakLines renders a channel's deterministic observation stream as NDJSON
// lines. Distinct seeds per channel give distinct per-channel state.
func soakLines(seed int64, n int) []string {
	actions, audience := soakSeries(seed, n)
	lines := make([]string, n)
	for i := range lines {
		b, err := json.Marshal(struct {
			Action   []float64 `json:"action"`
			Audience []float64 `json:"audience"`
		}{actions[i], audience[i]})
		if err != nil {
			panic(err)
		}
		lines[i] = string(b)
	}
	return lines
}

// nodeProc is one spawned aovlisd.
type nodeProc struct {
	name    string
	url     string
	dir     string // its -snapshot-dir
	walDir  string // its -wal-dir
	cmd     *exec.Cmd
	done    chan struct{} // closed when the process exits
	waitErr error         // valid after done closes
}

// kill is idempotent: the soak kills its victim mid-test and the
// registered Cleanup kills every node again on exit.
func (n *nodeProc) kill() {
	if n.cmd.Process != nil {
		n.cmd.Process.Kill()
	}
	<-n.done
}

// startNode spawns a real aovlisd on a fresh port and waits for /healthz.
// base holds the node's durable state: base/snap is its -snapshot-dir and
// base/wal its -wal-dir, both "shared" with the in-process router the way
// a real deployment shares them over a network filesystem.
func startNode(t *testing.T, bin, model, name, base string) *nodeProc {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	snapDir := filepath.Join(base, "snap")
	walDir := filepath.Join(base, "wal")
	cmd := exec.Command(bin,
		"-addr", addr, "-load", model, "-node-id", name,
		"-snapshot-dir", snapDir, "-wal-dir", walDir,
		"-shards", "2", "-queue", "256",
		"-admission=false", "-metrics=false")
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	n := &nodeProc{name: name, url: "http://" + addr, dir: snapDir, walDir: walDir, cmd: cmd, done: make(chan struct{})}
	go func() { n.waitErr = cmd.Wait(); close(n.done) }()
	t.Cleanup(n.kill)

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(n.url + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && bytes.Contains(body, []byte(name)) {
				return n
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s never became healthy at %s", name, n.url)
		}
		select {
		case <-n.done:
			t.Fatalf("node %s exited during startup: %v", name, n.waitErr)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// soakDecision is the daemon decision subset the soak compares on.
type soakDecision struct {
	Channel  string  `json:"channel"`
	Seq      int     `json:"seq"`
	Anomaly  bool    `json:"anomaly"`
	Score    float64 `json:"score"`
	Rejected bool    `json:"rejected"`
	Error    string  `json:"error"`
}

// streamLines pushes lines down one observe stream (paced when pace > 0)
// and returns the decision per line, in order. The response is read
// concurrently, so the stream pipelines up to the router window.
func streamLines(baseURL, id string, lines []string, pace time.Duration) ([]soakDecision, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, baseURL+"/channels/"+id+"/observe", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	writeErr := make(chan error, 1)
	go func() {
		defer pw.Close()
		for _, line := range lines {
			if _, err := io.WriteString(pw, line+"\n"); err != nil {
				writeErr <- err
				return
			}
			if pace > 0 {
				time.Sleep(pace)
			}
		}
		writeErr <- nil
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("observe %s: status %d: %s", id, resp.StatusCode, b)
	}
	var out []soakDecision
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var d soakDecision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("channel %s: bad decision %q: %v", id, sc.Text(), err)
		}
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if werr := <-writeErr; werr != nil && len(out) != len(lines) {
		return out, fmt.Errorf("channel %s: write failed after %d decisions: %v", id, len(out), werr)
	}
	return out, nil
}

// checkStream asserts the zero-loss contract on one stream's decisions:
// one per line, contiguous seqs, nothing rejected or errored.
func checkStream(t *testing.T, id string, decs []soakDecision, want int) {
	t.Helper()
	if len(decs) != want {
		t.Fatalf("channel %s: %d decisions for %d lines — accepted segments lost", id, len(decs), want)
	}
	for i, d := range decs {
		if d.Seq != i {
			t.Fatalf("channel %s: decision %d has seq %d — reordered", id, i, d.Seq)
		}
		if d.Error != "" {
			t.Fatalf("channel %s: decision %d errored: %s", id, i, d.Error)
		}
		if d.Rejected {
			t.Fatalf("channel %s: decision %d rejected under light load", id, i)
		}
	}
}

// placeOf asks the router which node owns a channel.
func placeOf(t *testing.T, routerURL, id string) string {
	t.Helper()
	resp, err := http.Get(routerURL + "/cluster/place?channel=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p struct {
		Node string `json:"node"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return p.Node
}

func TestClusterKillNodeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process soak skipped in -short")
	}
	bin, model := soakBinaries(t)

	const (
		nChannels = 12
		k1        = 40 // phase A (checkpointed) segments per channel
		k2        = 40 // phase B segments per channel
	)

	nodes := make([]*nodeProc, 3)
	specs := make([]cluster.NodeSpec, 3)
	for i := range nodes {
		name := fmt.Sprintf("soak-%d", i)
		nodes[i] = startNode(t, bin, model, name, t.TempDir())
		specs[i] = cluster.NodeSpec{Name: name, URL: nodes[i].url, SnapshotDir: nodes[i].dir, WALDir: nodes[i].walDir}
	}
	r, err := cluster.New(cluster.Config{
		Nodes:        specs,
		Window:       32,
		ProbeEvery:   100 * time.Millisecond,
		ProbeTimeout: 2 * time.Second,
		FailAfter:    2,
		FailoverWait: 30 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()
	router := wiretest.NewServer(t, r.Handler())
	defer router.Close()

	// A reference node replays every channel's full stream undisturbed —
	// the single-node baseline the bit-equality gate compares against.
	ref := startNode(t, bin, model, "soak-ref", t.TempDir())

	channels := make([]string, nChannels)
	lines := make([][]string, nChannels)
	refScores := make([][]soakDecision, nChannels)
	for i := range channels {
		channels[i] = fmt.Sprintf("soak-ch-%d", i)
		lines[i] = soakLines(1000+int64(i), k1+k2)
		decs, err := streamLines(ref.url, channels[i], lines[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		checkStream(t, "ref/"+channels[i], decs, k1+k2)
		refScores[i] = decs
	}

	// Phase A: every channel streams its first k1 segments through the
	// router; all of this state will be checkpointed before the kill.
	var wg sync.WaitGroup
	phaseA := make([][]soakDecision, nChannels)
	errs := make([]error, nChannels)
	for i := range channels {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			phaseA[i], errs[i] = streamLines(router.URL, channels[i], lines[i][:k1], 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		checkStream(t, channels[i], phaseA[i], k1)
	}

	// Pick the victim: the node owning the most channels. Its channels
	// split into a quiesced half (idle across the kill) and a live half
	// (streaming through the kill, exercising journal-tail replay); with
	// the WAL shared, both halves must come back bit-equal.
	owners := make(map[string][]int)
	for i, id := range channels {
		owners[placeOf(t, router.URL, id)] = append(owners[placeOf(t, router.URL, id)], i)
	}
	var victim *nodeProc
	for _, n := range nodes {
		if victim == nil || len(owners[n.name]) > len(owners[victim.name]) {
			victim = n
		}
	}
	victimChans := owners[victim.name]
	if len(victimChans) < 2 {
		t.Fatalf("victim %s owns %d channels; placement degenerate (%v)", victim.name, len(victimChans), owners)
	}
	quiesced := victimChans[:len(victimChans)/2]
	live := victimChans[len(victimChans)/2:]
	t.Logf("victim %s owns %d channels: %d quiesced, %d live-through-kill",
		victim.name, len(victimChans), len(quiesced), len(live))

	// Checkpoint the victim so failover has warm state to restore.
	resp, err := http.Post(victim.url+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("victim checkpoint: status %d", resp.StatusCode)
	}

	// Phase B for the live set and every survivor-owned channel: stream
	// slowly so the kill lands mid-flight.
	phaseB := make([][]soakDecision, nChannels)
	var liveSet []int
	for i := range channels {
		inQuiesced := false
		for _, q := range quiesced {
			if q == i {
				inQuiesced = true
			}
		}
		if !inQuiesced {
			liveSet = append(liveSet, i)
		}
	}
	for _, i := range liveSet {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			phaseB[i], errs[i] = streamLines(router.URL, channels[i], lines[i][k1:], 3*time.Millisecond)
		}(i)
	}
	time.Sleep(40 * time.Millisecond) // let the streams get airborne
	victim.kill()
	wg.Wait()
	for _, i := range liveSet {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkStream(t, channels[i], phaseB[i], k2)
	}

	// The quiesced channels replay phase B only after failover settled;
	// their state is exactly the checkpoint, so they must be bit-equal.
	for _, i := range quiesced {
		decs, err := streamLines(router.URL, channels[i], lines[i][k1:], 0)
		if err != nil {
			t.Fatal(err)
		}
		checkStream(t, channels[i], decs, k2)
		phaseB[i] = decs
	}

	// Bit-equality everywhere: phase A trivially, and phase B for EVERY
	// channel — the kill-in-flight set included. The victim journaled each
	// observation before acknowledging it, failover replayed that journal
	// up to the last decision the router delivered, and the parked streams
	// resubmitted the rest, so even the re-scored tails must match the
	// undisturbed single-node run bit for bit.
	for i := range channels {
		for k := 0; k < k1; k++ {
			if phaseA[i][k].Score != refScores[i][k].Score || phaseA[i][k].Anomaly != refScores[i][k].Anomaly {
				t.Fatalf("channel %s seq %d: phase A diverged from single-node replay: %v vs %v",
					channels[i], k, phaseA[i][k].Score, refScores[i][k].Score)
			}
		}
	}
	isLiveVictim := func(i int) bool {
		for _, l := range live {
			if l == i {
				return true
			}
		}
		return false
	}
	bitEqual := 0
	for i := range channels {
		kind := "undisturbed"
		switch {
		case isLiveVictim(i):
			kind = "killed in flight, journal-replayed"
		default:
			for _, q := range quiesced {
				if q == i {
					kind = "failover-restored (quiesced)"
				}
			}
		}
		for k := 0; k < k2; k++ {
			if phaseB[i][k].Score != refScores[i][k1+k].Score || phaseB[i][k].Anomaly != refScores[i][k1+k].Anomaly {
				t.Fatalf("channel %s (%s) seq %d: diverged from single-node replay after failover: %v vs %v",
					channels[i], kind, k1+k, phaseB[i][k].Score, refScores[i][k1+k].Score)
			}
		}
		bitEqual++
	}
	total := nChannels * (k1 + k2)
	fmt.Printf("SOAK-RESULT channels=%d segments=%d lost=0 bitequal=%d killinflight=%d\n",
		nChannels, total, bitEqual, len(live))
	if bitEqual != nChannels {
		t.Fatalf("bit-equal channels %d of %d — tightened WAL failover contract violated", bitEqual, nChannels)
	}
	if len(live) == 0 {
		t.Fatal("no channel exercised the kill-in-flight path")
	}
}

// TestClusterThroughput drives a 3-node tiered fleet through the
// router with the open-loop HTTP loadgen and prints the CLUSTER-RESULT
// line BENCH.md §8 and scripts/smoke.sh cluster gate. Functional assertion
// here is only zero loss; the throughput floor lives in the smoke script
// so a loaded CI box cannot flake the test suite.
func TestClusterThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster throughput skipped in -short")
	}
	if raceEnabled {
		t.Skip("throughput numbers are meaningless under the race detector")
	}
	bin, model := soakBinaries(t)

	nodes := make([]*nodeProc, 3)
	specs := make([]cluster.NodeSpec, 3)
	for i := range nodes {
		name := fmt.Sprintf("bench-%d", i)
		dir := t.TempDir()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()
		cmd := exec.Command(bin,
			"-addr", addr, "-load", model, "-node-id", name,
			"-snapshot-dir", dir, "-shards", "1", "-queue", "512",
			"-tiered", "-admission=false", "-metrics=false")
		// The bench fights for one core with its own clients; relaxed GC in
		// the children keeps the measurement about serving, not collection.
		cmd.Env = append(os.Environ(), "GOGC=400")
		cmd.Stdout = io.Discard
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		n := &nodeProc{name: name, url: "http://" + addr, dir: dir, cmd: cmd, done: make(chan struct{})}
		go func() { n.waitErr = cmd.Wait(); close(n.done) }()
		t.Cleanup(n.kill)
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(n.url + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never became healthy", name)
			}
			time.Sleep(50 * time.Millisecond)
		}
		nodes[i] = n
		specs[i] = cluster.NodeSpec{Name: name, URL: n.url, SnapshotDir: dir}
	}

	r, err := cluster.New(cluster.Config{Nodes: specs, Window: 64, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Close()
	router := wiretest.NewServer(t, r.Handler())
	defer router.Close()

	sched, err := loadgen.New(loadgen.Config{
		Shape: loadgen.Steady, Seed: 42, Duration: 3 * time.Second,
		BaseRate: 60000, Channels: 24,
		ActionDim: soakActionDim, AudienceDim: soakAudienceDim,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := loadgen.HTTPReplay{BaseURL: router.URL, Window: 64}
	res, err := h.Run(sched)
	if err != nil {
		t.Fatalf("replay failed: %v (result %+v)", err, res)
	}
	if res.Decisions != res.Sent {
		t.Fatalf("accepted segments lost: sent %d, answered %d", res.Sent, res.Decisions)
	}
	fmt.Printf("CLUSTER-RESULT nodes=3 agg_segs_per_sec=%.0f p50_us=%d p99_us=%d sent=%d decisions=%d lost=%d\n",
		res.SegsPerSec(), res.P50.Microseconds(), res.P99.Microseconds(),
		res.Sent, res.Decisions, res.Sent-res.Decisions)
}
