package main

// ISSUE 9's acceptance gates, as tests.
//
// TestDaemonWALLedgerInProcess drives the node's durability boot path
// (node.Open: ledger → sinks → journal replay → AttachJournal) in-process:
// a node stopped without any checkpoint must rebuild every channel from
// the journal alone, and the ledger endpoints must serve verifiable roots
// and proofs throughout.
//
// TestWALCrashReplaySmoke is the CI gate behind scripts/smoke.sh wal: a
// real aovlisd process with -wal-dir/-ledger-dir/-snapshot-dir is killed
// with SIGKILL mid-stream, restarted, and must account for every
// acknowledged segment (lost=0); the surviving ledger must pass `aovlisctl
// verify` — and fail it after a single byte flip. It prints the
// machine-readable `WAL-RESULT ...` line the script parses.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"aovlis/internal/ledger"
	"aovlis/internal/serve"
	"aovlis/internal/wire"
)

func TestDaemonWALLedgerInProcess(t *testing.T) {
	base := t.TempDir()
	cfg := testConfig(32, 4)
	cfg.WALDir, cfg.LedgerDir, cfg.LedgerBatch = filepath.Join(base, "wal"), filepath.Join(base, "ledger"), 4
	n, srv, stop := startNode(t, cfg, nil)
	defer stop()

	const lines = 12
	act, aud := testSeries(42, lines)
	var body strings.Builder
	for i := 0; i < lines; i++ {
		body.WriteString(observeLine(act[i], aud[i]) + "\n")
	}
	decs := postObserve(t, srv, "alpha", body.String())
	if len(decs) != lines {
		t.Fatalf("got %d decisions, want %d", len(decs), lines)
	}
	for i, dec := range decs {
		if dec.Error != "" || dec.Dropped || dec.Rejected {
			t.Fatalf("line %d not accepted: %+v", i, dec)
		}
		if dec.WSeq != uint64(i+1) {
			t.Fatalf("line %d carries wseq %d, want %d", i, dec.WSeq, i+1)
		}
	}

	// The ledger head is live over HTTP, and committed entries have
	// verifiable proofs. With warmup at q segments the first verdicts are
	// warmups (never ledgered), so only later sequences commit.
	resp, err := http.Get(srv.URL + "/ledger/root")
	if err != nil {
		t.Fatal(err)
	}
	var head ledger.RootInfo
	if err := json.NewDecoder(resp.Body).Decode(&head); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if head.Entries == 0 {
		t.Fatalf("no ledger entries committed: %+v (pending %d)", head, head.Pending)
	}
	resp, err = http.Get(srv.URL + "/ledger/proof/1")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proof status %d: %s", resp.StatusCode, raw)
	}
	var p ledger.Proof
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	if err := ledger.VerifyProof(p); err != nil {
		t.Fatalf("served proof does not verify: %v", err)
	}

	before, err := n.Pool().Stats("alpha")
	if err != nil {
		t.Fatal(err)
	}

	// The pool (all in-memory state) is discarded, the directories survive.
	// A node reopened on them must recreate the channel from the journal
	// tail alone — there was never a checkpoint.
	stop()

	n2, srv2 := openNode(t, cfg)
	after, err := n2.Pool().Stats("alpha")
	if err != nil {
		t.Fatalf("channel not rebuilt by replay: %v", err)
	}
	if after.Observed != before.Observed || after.Detected != before.Detected {
		t.Fatalf("replayed stats %+v, want %+v", after, before)
	}
	// The revived node continues the sequence instead of colliding.
	decs = postObserve(t, srv2, "alpha", observeLine(act[0], aud[0])+"\n")
	if len(decs) != 1 || decs[0].WSeq != lines+1 {
		t.Fatalf("post-replay wseq = %+v, want %d", decs, lines+1)
	}
}

// TestLedgerEndpointsDisabled pins the no-flag behavior: both ledger
// routes answer 412 like /snapshot does without -snapshot-dir.
func TestLedgerEndpointsDisabled(t *testing.T) {
	_, srv := openNode(t, testConfig(4, 0))
	for _, path := range []string{"/ledger/root", "/ledger/proof/1"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusPreconditionFailed {
			t.Fatalf("GET %s without -ledger-dir = %d, want 412", path, resp.StatusCode)
		}
	}
}

// --- multi-process kill -9 smoke ----------------------------------------

// smokeFixture builds the aovlisd + aovlisctl binaries and a small saved
// model once for the smoke.
var smokeFixture struct {
	once   sync.Once
	daemon string
	ctl    string
	model  string
	err    error
}

func smokeBinaries(t *testing.T) (daemonBin, ctlBin, model string) {
	t.Helper()
	smokeFixture.once.Do(func() {
		dir, err := os.MkdirTemp("", "aovlisd-walsmoke-")
		if err != nil {
			smokeFixture.err = err
			return
		}
		smokeFixture.daemon = filepath.Join(dir, "aovlisd")
		smokeFixture.ctl = filepath.Join(dir, "aovlisctl")
		for bin, pkg := range map[string]string{
			smokeFixture.daemon: "aovlis/cmd/aovlisd",
			smokeFixture.ctl:    "aovlis/cmd/aovlisctl",
		} {
			if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
				smokeFixture.err = fmt.Errorf("building %s: %v\n%s", pkg, err, out)
				return
			}
		}
		smokeFixture.model = filepath.Join(dir, "model.gob")
		f, err := os.Create(smokeFixture.model)
		if err != nil {
			smokeFixture.err = err
			return
		}
		if err := template(t).Save(f); err != nil {
			smokeFixture.err = err
			return
		}
		smokeFixture.err = f.Close()
	})
	if smokeFixture.err != nil {
		t.Fatal(smokeFixture.err)
	}
	return smokeFixture.daemon, smokeFixture.ctl, smokeFixture.model
}

// syncBuffer serialises the capture goroutine's writes against the
// test's reads — the daemon keeps logging while the test inspects its
// output (boot-time replay lines, failure diagnostics).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// smokeNode is one spawned aovlisd process.
type smokeNode struct {
	url  string
	cmd  *exec.Cmd
	out  *syncBuffer // combined stdout+stderr
	done chan struct{}
}

func (n *smokeNode) signal(sig syscall.Signal) {
	if n.cmd.Process != nil {
		n.cmd.Process.Signal(sig)
	}
}

func (n *smokeNode) wait(t *testing.T) {
	t.Helper()
	select {
	case <-n.done:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit")
	}
}

// startSmokeNode spawns aovlisd with the full durability stack enabled.
func startSmokeNode(t *testing.T, bin, model, walDir, ledDir, snapDir string) *smokeNode {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(bin,
		"-addr", addr, "-load", model,
		"-wal-dir", walDir, "-ledger-dir", ledDir, "-ledger-batch", "8",
		"-snapshot-dir", snapDir, "-shards", "2", "-queue", "128",
		"-admission=false", "-metrics=false")
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	n := &smokeNode{url: "http://" + addr, cmd: cmd, out: &syncBuffer{}, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		io.Copy(n.out, pipe)
		cmd.Wait()
		close(n.done)
	}()
	t.Cleanup(func() { n.signal(syscall.SIGKILL); <-n.done })

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(n.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return n
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy at %s\n%s", n.url, n.out.Bytes())
		}
		select {
		case <-n.done:
			t.Fatalf("daemon exited during startup:\n%s", n.out.Bytes())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// streamAcked POSTs lines to one channel and returns the number of
// acknowledged decisions (no error/dropped/rejected). With kill != nil it
// paces the stream and fires kill after minAcked acknowledgements; the
// connection then breaks and only decisions read before the break count.
func streamAcked(t *testing.T, url, id string, lines []string, kill func(), minAcked int) int {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+"/channels/"+id+"/observe", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	paced := kill != nil // the reader loop nils kill; don't race on it
	go func() {
		defer pw.Close()
		for _, line := range lines {
			if _, err := io.WriteString(pw, line+"\n"); err != nil {
				return
			}
			if paced {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if kill == nil {
			t.Fatal(err)
		}
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("observe status %d: %s", resp.StatusCode, raw)
	}
	acked := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var dec wire.Decision
		if err := json.Unmarshal(sc.Bytes(), &dec); err != nil {
			break // torn line from the kill
		}
		if dec.Error == "" && !dec.Dropped && !dec.Rejected {
			acked++
		}
		if kill != nil && acked == minAcked {
			kill()
			kill = nil
		}
	}
	return acked
}

func TestWALCrashReplaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke")
	}
	daemonBin, ctlBin, model := smokeBinaries(t)
	base := t.TempDir()
	walDir := filepath.Join(base, "wal")
	ledDir := filepath.Join(base, "ledger")
	snapDir := filepath.Join(base, "snap")
	for _, d := range []string{walDir, ledDir, snapDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	const (
		channels = 4
		leg1     = 30
		leg2     = 20
		killLeg  = 60
	)
	ids := make([]string, channels)
	streams := make(map[string][]string, channels)
	for i := range ids {
		ids[i] = fmt.Sprintf("smoke-%d", i)
		streams[ids[i]] = smokeLines(400+int64(i), leg1+leg2+killLeg)
	}
	acked := make(map[string]int, channels)

	n1 := startSmokeNode(t, daemonBin, model, walDir, ledDir, snapDir)
	for _, id := range ids {
		acked[id] += streamAcked(t, n1.url, id, streams[id][:leg1], nil, 0)
	}
	// Mid-stream checkpoint: later replay must start from its floors, and
	// covered journal segments may be truncated.
	if resp, err := http.Post(n1.url+"/snapshot", "", nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	for _, id := range ids {
		acked[id] += streamAcked(t, n1.url, id, streams[id][leg1:leg1+leg2], nil, 0)
	}

	// The kill leg: pace one channel's stream and SIGKILL the daemon after
	// a handful of acknowledgements; the rest of the stream dies with it.
	killed := make(chan struct{})
	acked[ids[0]] += streamAcked(t, n1.url, ids[0], streams[ids[0]][leg1+leg2:], func() {
		n1.signal(syscall.SIGKILL)
		close(killed)
	}, 10)
	<-killed
	<-n1.done

	// Restart on the same directories: the journal tail above the
	// checkpoint floors replays, and every acknowledged segment must be
	// accounted for in the revived channels' counters.
	n2 := startSmokeNode(t, daemonBin, model, walDir, ledDir, snapDir)
	replayLine := regexp.MustCompile(`ingest WAL .*: replayed (\d+) records`)
	m := replayLine.FindSubmatch(n2.out.Bytes())
	if m == nil {
		t.Fatalf("restarted daemon printed no replay line:\n%s", n2.out.Bytes())
	}
	lost, ackedTotal := 0, 0
	for _, id := range ids {
		resp, err := http.Get(n2.url + "/channels/" + id + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st serve.ChannelStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ackedTotal += acked[id]
		if got := int(st.Observed); got < acked[id] {
			t.Errorf("channel %s observed %d after replay, acknowledged %d", id, got, acked[id])
			lost += acked[id] - got
		}
	}

	// The revived daemon still serves and still journals: one more leg.
	for _, id := range ids {
		if got := streamAcked(t, n2.url, id, streams[id][:5], nil, 0); got != 5 {
			t.Fatalf("channel %s accepted %d/5 post-restart lines", id, got)
		}
	}

	// Ledger audit: fetch a proof while live, then stop gracefully and
	// verify the directory offline with aovlisctl.
	resp, err := http.Get(n2.url + "/ledger/proof/1")
	if err != nil {
		t.Fatal(err)
	}
	proofRaw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proof status %d: %s", resp.StatusCode, proofRaw)
	}
	proofFile := filepath.Join(base, "proof.json")
	if err := os.WriteFile(proofFile, proofRaw, 0o644); err != nil {
		t.Fatal(err)
	}
	n2.signal(syscall.SIGTERM)
	n2.wait(t)

	ledgerState := "ok"
	out, err := exec.Command(ctlBin, "verify", "-ledger-dir", ledDir).CombinedOutput()
	if err != nil {
		t.Errorf("aovlisctl verify failed on the surviving ledger: %v\n%s", err, out)
		ledgerState = "corrupt"
	}
	chained := regexp.MustCompile(`chained ([0-9a-f]{64})`).FindSubmatch(out)
	if chained == nil {
		t.Fatalf("verify printed no chained head: %s", out)
	}
	if out, err := exec.Command(ctlBin, "verify", "-ledger-dir", ledDir,
		"-expect-chained", string(chained[1])).CombinedOutput(); err != nil {
		t.Errorf("verify with its own chained head failed: %v\n%s", err, out)
		ledgerState = "corrupt"
	}
	if out, err := exec.Command(ctlBin, "proof", "-in", proofFile).CombinedOutput(); err != nil {
		t.Errorf("aovlisctl proof rejected a served proof: %v\n%s", err, out)
		ledgerState = "corrupt"
	}

	// Tamper drill: flip one byte of the first committed batch; the audit
	// must fail. Restore it; the audit must pass again.
	batch := filepath.Join(ledDir, "batch-00000001.blk")
	b, err := os.ReadFile(batch)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x01
	if err := os.WriteFile(batch, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(ctlBin, "verify", "-ledger-dir", ledDir).CombinedOutput(); err == nil {
		t.Errorf("aovlisctl verify accepted a tampered ledger:\n%s", out)
		ledgerState = "tamper-missed"
	}
	b[len(b)/3] ^= 0x01
	if err := os.WriteFile(batch, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(ctlBin, "verify", "-ledger-dir", ledDir).CombinedOutput(); err != nil {
		t.Errorf("restored ledger failed verification: %v\n%s", err, out)
		ledgerState = "corrupt"
	}

	fmt.Printf("WAL-RESULT channels=%d acked=%d lost=%d replayed=%s ledger=%s\n",
		channels, ackedTotal, lost, m[1], ledgerState)
}

// smokeLines renders a deterministic observation stream as NDJSON lines.
func smokeLines(seed int64, n int) []string {
	act, aud := testSeries(seed, n)
	lines := make([]string, n)
	for i := range lines {
		lines[i] = observeLine(act[i], aud[i])
	}
	return lines
}
