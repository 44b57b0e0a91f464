package serve

// Goroutine-leak assertions (ISSUE 7 satellite): every pool teardown path
// must leave zero shard workers behind — plain Close, Close racing a
// snapshot, and Close while the pool is overloaded with a backed-up queue
// and an admission state raised to reject. Leaks are detected by scanning
// runtime stacks for the worker frame, with a retry loop because worker
// exit happens-after Close returns only for the workers Close waited on.

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// poolGoroutines counts live goroutines parked anywhere inside the pool's
// worker loop.
func poolGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "serve.(*DetectorPool).runShard")
}

// assertNoPoolGoroutines retries briefly: runtime.Stack can observe a
// worker that has left the loop but not yet exited.
func assertNoPoolGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := poolGoroutines()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			sz := runtime.Stack(buf, true)
			t.Fatalf("%d pool worker goroutines leaked:\n%s", n, dumpPoolStacks(buf[:sz]))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dumpPoolStacks trims a full stack dump to the goroutines that mention
// the pool, keeping leak failures readable.
func dumpPoolStacks(dump []byte) string {
	var out bytes.Buffer
	for _, g := range bytes.Split(dump, []byte("\n\n")) {
		if bytes.Contains(g, []byte("serve.(*DetectorPool)")) {
			out.Write(g)
			out.WriteString("\n\n")
		}
	}
	return out.String()
}

func TestPoolCloseLeaksNoGoroutines(t *testing.T) {
	p, err := NewDetectorPool(Config{Shards: 4, QueueDepth: 16, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := p.Attach(fmt.Sprintf("ch%d", i), &fakeDetector{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		if _, err := p.Observe(fmt.Sprintf("ch%d", i%8), []float64{1}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoPoolGoroutines(t)
}

// TestPoolCloseDuringSnapshotLeaksNoGoroutines races Close against an
// in-flight Snapshot: whichever way the race lands (snapshot completes or
// errors on the closed pool), no worker and no snapshot goroutine may
// survive.
func TestPoolCloseDuringSnapshotLeaksNoGoroutines(t *testing.T) {
	tmpl := trainTemplate(t)
	p, err := NewDetectorPool(Config{Shards: 2, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Attach(fmt.Sprintf("ch%d", i), det); err != nil {
			t.Fatal(err)
		}
	}
	snapErr := make(chan error, 1)
	go func() { _, err := p.Snapshot(t.TempDir()); snapErr <- err }()
	// Let the snapshot get some quiesce control jobs in flight, then close.
	time.Sleep(time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// The snapshot goroutine must terminate either way; its error (if any)
	// must be the closed-pool error, not a hang.
	select {
	case err := <-snapErr:
		if err != nil && !strings.Contains(err.Error(), "closed") {
			t.Logf("snapshot during close returned: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot did not return after Close")
	}
	assertNoPoolGoroutines(t)
}

// TestPoolCloseUnderOverloadLeaksNoGoroutines tears the pool down at the
// worst moment: queue backed up past the reject watermark, admission in
// reject, a worker parked inside a slow detector. Close must drain the
// accepted backlog (delivering every outcome) and leave nothing behind.
func TestPoolCloseUnderOverloadLeaksNoGoroutines(t *testing.T) {
	p, err := NewDetectorPool(admissionTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	det := newGatedDetector(t)
	if err := p.Attach("ch", det); err != nil {
		t.Fatal(err)
	}
	var outs []<-chan Outcome
	rejected := 0
	for i := 0; i < 12; i++ {
		out := make(chan Outcome, 1)
		err := p.SubmitInto("ch", []float64{1}, []float64{1}, out)
		if err != nil {
			rejected++
			continue
		}
		outs = append(outs, out)
	}
	if rejected == 0 || p.AdmissionState() != AdmitReject {
		t.Fatalf("overload not reached: rejected=%d state=%v", rejected, p.AdmissionState())
	}
	// Open the gate permanently and close while the backlog is still deep.
	det.closeOnce.Do(func() { close(det.release) })
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Close drains: every accepted observation still delivers its outcome.
	for i, out := range outs {
		select {
		case o := <-out:
			if o.Err != nil {
				t.Fatalf("accepted observation %d failed during close: %v", i, o.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("accepted observation %d lost during close", i)
		}
	}
	assertNoPoolGoroutines(t)
}
