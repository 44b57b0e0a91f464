package serve

// Admission-control tests: the watermark state machine in isolation, then
// the pool-level behaviour — reject refuses submissions with ErrRejected
// before any accepted segment is lost, and the pool admits again with
// hysteresis.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"aovlis"
)

func TestAdmissionConfigValidate(t *testing.T) {
	if err := (AdmissionConfig{}).Validate(); err != nil {
		t.Fatalf("disabled config rejected: %v", err)
	}
	if err := DefaultAdmissionConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := []AdmissionConfig{
		{Enabled: true}, // zero watermarks
		{Enabled: true, RejectHighFrac: 1.5, RejectLowFrac: 0.2},  // high > 1
		{Enabled: true, RejectHighFrac: 0.9, RejectLowFrac: 0.9},  // low == high
		{Enabled: true, RejectHighFrac: 0.9, RejectLowFrac: -0.1}, // low < 0
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// TestAdmissionStateMachine drives the raw machine through a full
// overload cycle and checks both the watermark arithmetic and the
// hysteresis: a raise at the high watermark must not relax until the low
// watermark.
func TestAdmissionStateMachine(t *testing.T) {
	a := newAdmission(DefaultAdmissionConfig(), 16)
	// ceil(0.9·16)=15, floor(0.25·16)=4.
	if a.high != 15 || a.low != 4 {
		t.Fatalf("watermarks = %d/%d", a.high, a.low)
	}

	if s := a.admit(0); s != AdmitNormal {
		t.Fatalf("empty queue admitted at %v", s)
	}
	if s := a.admit(14); s != AdmitNormal {
		t.Fatalf("below the high watermark admitted at %v", s)
	}
	if s := a.admit(15); s != AdmitReject {
		t.Fatalf("at the high watermark admitted at %v", s)
	}
	// Hysteresis: dropping below the trigger does NOT relax, and a
	// submission that finds a short queue is still refused.
	a.relax(5)
	if s := a.admit(5); s != AdmitReject {
		t.Fatalf("relaxed to %v at depth 5 (low is 4)", s)
	}
	a.relax(4)
	if s := a.current(); s != AdmitNormal {
		t.Fatalf("did not relax at the low watermark: %v", s)
	}
	if got := a.transitions.Load(); got != 2 {
		t.Fatalf("transitions = %d, want 2 (normal→reject→normal)", got)
	}

	// Disabled machine never moves.
	off := newAdmission(AdmissionConfig{}, 16)
	if s := off.admit(16); s != AdmitNormal {
		t.Fatalf("disabled admission raised to %v", s)
	}
}

func TestAdmissionStateString(t *testing.T) {
	for s, want := range map[AdmissionState]string{
		AdmitNormal: "normal", AdmitReject: "reject", AdmissionState(9): "AdmissionState(9)",
	} {
		if s.String() != want {
			t.Fatalf("String(%d) = %q, want %q", s, s.String(), want)
		}
	}
}

// gatedDetector blocks each Observe on a release channel.
type gatedDetector struct {
	release   chan struct{} // one receive per Observe
	closeOnce sync.Once
}

// newGatedDetector returns a gated detector whose gate opens permanently at
// test cleanup, so a Fatal mid-test cannot leave pool Close waiting on a
// worker stuck inside Observe.
func newGatedDetector(t *testing.T) *gatedDetector {
	g := &gatedDetector{release: make(chan struct{})}
	t.Cleanup(func() { g.closeOnce.Do(func() { close(g.release) }) })
	return g
}

func (g *gatedDetector) Observe(action, audience []float64) (aovlis.Result, error) {
	<-g.release
	return aovlis.Result{Score: 0.1, Exact: true, Path: "exact"}, nil
}

// admissionTestConfig: shards=1, queue 10 → reject at 9, admit again at 2.
func admissionTestConfig() Config {
	return Config{Shards: 1, QueueDepth: 10, Policy: Block,
		Admission: AdmissionConfig{Enabled: true, RejectHighFrac: 0.9, RejectLowFrac: 0.2}}
}

// TestPoolRejectsThenRecovers walks the pool through the overload cycle:
// back the queue up to the high watermark (submissions refused with
// ErrRejected, nothing accepted is lost), then drain and verify the pool
// admits again.
func TestPoolRejectsThenRecovers(t *testing.T) {
	p := newTestPool(t, admissionTestConfig())
	det := newGatedDetector(t)
	if err := p.Attach("ch", det); err != nil {
		t.Fatal(err)
	}

	var outs []<-chan Outcome
	submit := func() error {
		out, err := p.Submit("ch", []float64{1}, []float64{1})
		if err == nil {
			outs = append(outs, out)
		}
		return err
	}

	// First submission is dequeued immediately and blocks inside Observe;
	// wait for the dequeue so queue length becomes deterministic.
	if err := submit(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st, _ := p.Stats("ch")
		return st.QueueDepth == 0 && len(p.shards[0].queue) == 0
	})

	// Fill to the high watermark: submissions 2..10 see queue lengths 0..8
	// at admit time, so all are admitted (the raise happens on the submit
	// that SEES depth 9).
	for i := 0; i < 9; i++ {
		if err := submit(); err != nil {
			t.Fatalf("fill submission %d refused: %v", i, err)
		}
	}
	if s := p.AdmissionState(); s != AdmitNormal {
		t.Fatalf("admission state %v at depth 9 before any submit saw it, want normal", s)
	}
	err := submit()
	if !errors.Is(err, ErrRejected) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit in reject state returned %v, want ErrRejected (an ErrOverloaded)", err)
	}
	if s := p.AdmissionState(); s != AdmitReject {
		t.Fatalf("admission state %v after reject, want reject", s)
	}
	st, _ := p.Stats("ch")
	if st.Rejected != 1 || st.Dropped != 0 {
		t.Fatalf("rejected %d dropped %d, want 1/0", st.Rejected, st.Dropped)
	}

	// Hysteresis: after seven scored segments the worker's last look found
	// the queue at 3, above the low watermark, and the pool still refuses.
	accepted := len(outs)
	for i := 0; i < 7; i++ {
		det.release <- struct{}{}
		<-outs[i]
	}
	if err := submit(); !errors.Is(err, ErrRejected) {
		t.Fatalf("submit at depth 3 (low is 2) returned %v, want ErrRejected", err)
	}

	// Release every remaining accepted observation and wait for the drain.
	for _, out := range outs[7:] {
		det.release <- struct{}{}
		if o := <-out; o.Err != nil {
			t.Fatalf("accepted observation failed: %v", o.Err)
		}
	}
	waitFor(t, func() bool { return p.AdmissionState() == AdmitNormal })
	st, _ = p.Stats("ch")
	if st.Observed != uint64(accepted) {
		t.Fatalf("observed %d, want %d — accepted segments were lost", st.Observed, accepted)
	}
	ps := p.PoolStats()
	if ps.AdmissionState != "normal" || ps.Rejected != 2 {
		t.Fatalf("pool stats %+v", ps)
	}

	// The recovered pool scores again.
	if err := submit(); err != nil {
		t.Fatal(err)
	}
	det.release <- struct{}{}
	if o := <-outs[len(outs)-1]; o.Err != nil || o.Result.Path != "exact" {
		t.Fatalf("post-recovery outcome %+v", o)
	}
}

// TestOverloadVerdictsMatchSerialReplay pins the property overload control
// must keep: a verdict is a function of the detector and the accepted
// stream, whatever the load. An open-loop burst over real detectors drives
// the pool into reject and back; every accepted segment's Result must be
// bit-equal to a serial Observe replay of the accepted subsequence through
// a fresh clone.
func TestOverloadVerdictsMatchSerialReplay(t *testing.T) {
	const channels, segs = 4, 240
	tmpl := trainTemplate(t)
	p := newTestPool(t, Config{Shards: 2, QueueDepth: 16, Policy: Block, Batch: 8,
		Admission: DefaultAdmissionConfig()})
	type stream struct {
		acts, auds [][]float64
		accepted   []int // indices the pool admitted, in order
		outs       []<-chan Outcome
		rejected   int
	}
	streams := make([]stream, channels)
	for c := range streams {
		st := &streams[c]
		st.acts, st.auds = testStream(int64(300+c), segs)
		for i := 20; i < segs; i += 37 { // bursts, so dropping a segment moves later verdicts
			st.acts[i] = make([]float64, 16)
			st.acts[i][15] = 1
			for j := range st.auds[i] {
				st.auds[i][j] = 0.95
			}
		}
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Attach(fmt.Sprintf("ch-%d", c), det); err != nil {
			t.Fatal(err)
		}
	}

	// Hold ch-0's shard at a segment boundary until the burst has backed
	// its queue up into reject, so reaching overload does not depend on
	// host speed; after the release the submitters run at their own pace.
	gate := make(chan struct{})
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(gate) }) })
	held := make(chan error, 1)
	go func() { held <- p.WithChannel("ch-0", func(Detector) error { <-gate; return nil }) }()

	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st, id := &streams[c], fmt.Sprintf("ch-%d", c)
			for i := range st.acts {
				out, err := p.Submit(id, st.acts[i], st.auds[i])
				switch {
				case errors.Is(err, ErrRejected):
					// An open-loop source does not resend: the segment is
					// gone from the accepted stream. Give the pool a moment
					// to drain.
					st.rejected++
					time.Sleep(200 * time.Microsecond)
				case err != nil:
					t.Errorf("%s segment %d: %v", id, i, err)
					return
				default:
					st.accepted = append(st.accepted, i)
					st.outs = append(st.outs, out)
				}
			}
		}(c)
	}
	waitFor(t, func() bool { return p.AdmissionState() == AdmitReject })
	release.Do(func() { close(gate) })
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	rejected := 0
	for c := range streams {
		st := &streams[c]
		rejected += st.rejected
		fresh, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		for k, i := range st.accepted {
			o := <-st.outs[k]
			want, err := fresh.Observe(st.acts[i], st.auds[i])
			if err != nil || o.Err != nil {
				t.Fatalf("ch-%d segment %d: pool error %v, replay error %v", c, i, o.Err, err)
			}
			got := o.Result
			if math.Float64bits(got.Score) != math.Float64bits(want.Score) {
				t.Fatalf("ch-%d segment %d (accepted #%d): pool score %x, serial replay %x",
					c, i, k, math.Float64bits(got.Score), math.Float64bits(want.Score))
			}
			got.Score, want.Score = 0, 0
			if got != want {
				t.Fatalf("ch-%d segment %d (accepted #%d): pool %+v, serial replay %+v", c, i, k, got, want)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("the burst was never refused — the pool did not reach reject")
	}
	waitFor(t, func() bool { return p.AdmissionState() == AdmitNormal })
	ps := p.PoolStats()
	if ps.Rejected != uint64(rejected) || ps.Dropped != 0 || ps.Errors != 0 {
		t.Fatalf("pool stats %+v, harness saw %d rejections", ps, rejected)
	}
}

// TestAdmissionDisabledNeverRejects pins the legacy behaviour: with the
// zero-value AdmissionConfig a Block-policy pool only ever applies
// backpressure.
func TestAdmissionDisabledNeverRejects(t *testing.T) {
	p := newTestPool(t, Config{Shards: 1, QueueDepth: 2, Policy: Block})
	det := newGatedDetector(t)
	if err := p.Attach("ch", det); err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Observe("ch", []float64{1}, []float64{1})
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		det.release <- struct{}{}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("blocked-policy observe failed: %v", err)
		}
	}
	if s := p.AdmissionState(); s != AdmitNormal {
		t.Fatalf("disabled admission reports %v", s)
	}
}

// waitFor polls cond with a deadline — for worker-side effects that are
// eventually consistent with the test goroutine.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInstrumentedPoolSteadyStateAllocs pins the zero-allocation claim for
// the instrumented submit→score→outcome path: with metrics recording and
// admission control both active, a steady-state observation allocates
// nothing on either side of the queue.
func TestInstrumentedPoolSteadyStateAllocs(t *testing.T) {
	cfg := admissionTestConfig()
	cfg.QueueDepth = 64
	p := newTestPool(t, cfg)
	if err := p.Attach("ch", &fakeDetector{}); err != nil {
		t.Fatal(err)
	}
	action, audience := []float64{1, 2}, []float64{3}
	out := make(chan Outcome, 1)
	// Warm the path (sync.Pool, lazy runtime state).
	for i := 0; i < 100; i++ {
		if err := p.SubmitInto("ch", action, audience, out); err != nil {
			t.Fatal(err)
		}
		<-out
	}
	n := testing.AllocsPerRun(500, func() {
		if err := p.SubmitInto("ch", action, audience, out); err != nil {
			t.Fatal(err)
		}
		<-out
	})
	if n != 0 {
		t.Fatalf("instrumented submit path allocates %v allocs/op, want 0", n)
	}
}
