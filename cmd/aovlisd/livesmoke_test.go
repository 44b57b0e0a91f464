package main

// Multi-process live-plane smoke (ISSUE 10): a real aovlisd with the full
// durability stack serves the three adversarial loadgen presets over live
// WebSocket connections; mid-stream the daemon is SIGKILLed and restarted,
// and the client resumes with Last-Seq against the WAL-derived floor. The
// test prints a machine-readable summary
//
//	LIVE-RESULT channels=C segments=N lost=0 bitequal=ok resumes=R presets=3
//
// which scripts/smoke.sh live gates in CI: lost must be 0 (zero
// accepted-segment loss across kill -9 + reconnect), bitequal must be ok
// (every delivered decision byte-identical to a batch replay of the same
// stream on the saved model), and segments must clear the BENCH.md §10
// floor so the drill cannot silently degenerate into proving nothing.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/serve"
	"aovlis/internal/serve/loadgen"
	"aovlis/internal/stream/live"
)

// smokeExpected batch-replays one stream on a clone of the saved model and
// renders the exact payload bytes the live plane must produce. The smoke
// daemon journals, so Seq and WSeq are both the per-channel WAL sequence.
func smokeExpected(t *testing.T, ref *aovlis.Detector, ch string, acts, auds [][]float64) []string {
	t.Helper()
	clone, err := ref.Clone()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(acts))
	for i := range acts {
		r, err := clone.Observe(acts[i], auds[i])
		if err != nil {
			t.Fatalf("batch replay %s segment %d: %v", ch, i, err)
		}
		b, err := json.Marshal(&live.Decision{
			Channel: ch, Seq: uint64(i + 1),
			Warmup: r.Warmup, Anomaly: r.Anomaly, Score: r.Score, Exact: r.Exact, Path: r.Path,
			WSeq: uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// liveLeg opens one live connection resuming at lastSeq and streams the
// channel's segments from the floor the handshake advertises (the resume
// protocol's resend point), recording decision payloads by seq. With
// kill != nil it fires after killAfter recorded decisions and returns
// once the broken connection surfaces; otherwise it reads until every
// segment's decision arrived. Returns the highest seq recorded and the
// advertised floor.
func liveLeg(t *testing.T, url, ch string, acts, auds [][]float64, lastSeq uint64,
	got map[uint64]string, killAfter int, kill func()) (uint64, uint64) {
	t.Helper()
	hdr := http.Header{}
	if lastSeq > 0 {
		hdr.Set(live.LastSeqHeader, strconv.FormatUint(lastSeq, 10))
	}
	conn, resp, err := live.Dial(url+"/live/"+ch, hdr)
	if err != nil {
		t.Fatalf("dial %s: %v", ch, err)
	}
	defer conn.Close()
	floor, err := strconv.ParseUint(resp.Header.Get(live.ResumeHeader), 10, 64)
	if err != nil {
		t.Fatalf("channel %s: bad resume floor %q", ch, resp.Header.Get(live.ResumeHeader))
	}
	if floor < lastSeq {
		t.Fatalf("channel %s: floor %d below client's Last-Seq %d", ch, floor, lastSeq)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int(floor); i < len(acts); i++ {
			b, err := json.Marshal(live.Observation{Action: acts[i], Audience: auds[i]})
			if err != nil {
				return
			}
			if err := conn.WriteMessage(live.OpText, b); err != nil {
				return // connection died (kill leg): expected
			}
			if kill != nil {
				time.Sleep(time.Millisecond) // pace so the kill lands mid-stream
			}
		}
	}()
	defer wg.Wait()

	last := lastSeq
	want := uint64(len(acts))
	fired := false
	for last < want {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		op, msg, err := conn.ReadMessage()
		if err != nil {
			if !fired {
				t.Fatalf("channel %s: read after seq %d: %v", ch, last, err)
			}
			return last, floor // the kill broke the stream
		}
		if op != live.OpText {
			continue
		}
		var dec live.Decision
		if err := json.Unmarshal(msg, &dec); err != nil {
			t.Fatalf("channel %s: bad decision %q: %v", ch, msg, err)
		}
		if dec.Seq == 0 {
			t.Fatalf("channel %s: unaccepted decision mid-smoke: %s", ch, msg)
		}
		if _, dup := got[dec.Seq]; dup {
			t.Fatalf("channel %s: duplicate seq %d", ch, dec.Seq)
		}
		got[dec.Seq] = string(msg)
		if dec.Seq > last {
			last = dec.Seq
		}
		if kill != nil && !fired && len(got) >= killAfter {
			kill()
			fired = true
		}
	}
	return last, floor
}

func TestLiveKillResumeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke")
	}
	daemonBin, _, model := smokeBinaries(t)
	base := t.TempDir()
	walDir := filepath.Join(base, "wal")
	ledDir := filepath.Join(base, "ledger")
	snapDir := filepath.Join(base, "snap")
	for _, d := range []string{walDir, ledDir, snapDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := aovlis.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	// The three adversarial presets, two channels each.
	type chanStream struct {
		id         string
		acts, auds [][]float64
		want       []string
		got        map[uint64]string
	}
	var chans []*chanStream
	presets := loadgen.PresetNames()
	for pi, name := range presets {
		cfg, err := loadgen.AdversarialPreset(name, int64(7+pi), 2, testActionDim, testAudienceDim)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := loadgen.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		split := make([]*chanStream, cfg.Channels)
		for ci := range split {
			split[ci] = &chanStream{id: fmt.Sprintf("%s-%d", name, ci), got: make(map[uint64]string)}
		}
		for i := range sched.Arrivals {
			a := &sched.Arrivals[i]
			cs := split[a.ChannelIndex]
			cs.acts = append(cs.acts, a.Action)
			cs.auds = append(cs.auds, a.Audience)
		}
		for _, cs := range split {
			if len(cs.acts) < 10 {
				t.Fatalf("channel %s drew only %d arrivals", cs.id, len(cs.acts))
			}
			cs.want = smokeExpected(t, ref, cs.id, cs.acts, cs.auds)
			chans = append(chans, cs)
		}
	}

	// Leg 1: the first channel streams live until the daemon is SIGKILLed
	// mid-flight — decisions past the client's read point die with the
	// connection, but their segments are journaled.
	n1 := startSmokeNode(t, daemonBin, model, walDir, ledDir, snapDir)
	victim := chans[0]
	killed := make(chan struct{})
	lastSeen, _ := liveLeg(t, n1.url, victim.id, victim.acts, victim.auds, 0, victim.got,
		15, func() { n1.signal(syscall.SIGKILL); close(killed) })
	<-killed
	<-n1.done
	if lastSeen == 0 || int(lastSeen) >= len(victim.acts) {
		t.Fatalf("kill landed outside the stream: last seen seq %d of %d", lastSeen, len(victim.acts))
	}

	// Leg 2: restart on the same directories — the WAL replay rebuilds the
	// channel — and resume with Last-Seq. The advertised floor tells the
	// client exactly where accepted segments end; it resends from there and
	// every remaining seq arrives exactly once.
	n2 := startSmokeNode(t, daemonBin, model, walDir, ledDir, snapDir)
	resumes := 1
	last, floor := liveLeg(t, n2.url, victim.id, victim.acts, victim.auds, lastSeen, victim.got, 0, nil)
	if last != uint64(len(victim.acts)) {
		t.Fatalf("resume ended at seq %d, want %d", last, len(victim.acts))
	}
	if floor < lastSeen {
		t.Fatalf("resume floor %d below last seen %d", floor, lastSeen)
	}

	// The remaining channels stream their full runs against the restarted
	// daemon, concurrently.
	var wg sync.WaitGroup
	for _, cs := range chans[1:] {
		wg.Add(1)
		go func(cs *chanStream) {
			defer wg.Done()
			if last, _ := liveLeg(t, n2.url, cs.id, cs.acts, cs.auds, 0, cs.got, 0, nil); last != uint64(len(cs.acts)) {
				t.Errorf("channel %s ended at seq %d, want %d", cs.id, last, len(cs.acts))
			}
		}(cs)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Accounting: every accepted segment scored exactly once (stats must
	// equal the stream length — more would be a replay/resend overlap,
	// fewer a loss), and every delivered decision byte-equal to batch.
	segments, lost := 0, 0
	bitequal := "ok"
	for _, cs := range chans {
		n := len(cs.acts)
		segments += n
		var st serve.ChannelStats
		resp, err := http.Get(n2.url + "/channels/" + cs.id + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if int(st.Observed) != n {
			t.Errorf("channel %s observed %d segments, stream has %d", cs.id, st.Observed, n)
			if int(st.Observed) < n {
				lost += n - int(st.Observed)
			}
		}
		for seq, raw := range cs.got {
			if want := cs.want[seq-1]; raw != want {
				bitequal = "fail"
				t.Errorf("channel %s seq %d diverged live vs batch:\n live  %s\n batch %s", cs.id, seq, raw, want)
			}
		}
	}

	n2.signal(syscall.SIGTERM)
	n2.wait(t)
	fmt.Printf("LIVE-RESULT channels=%d segments=%d lost=%d bitequal=%s resumes=%d presets=%d\n",
		len(chans), segments, lost, bitequal, resumes, len(presets))
}
