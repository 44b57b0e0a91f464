package serve

import (
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"aovlis"
	"aovlis/internal/wire"
)

// discardFraming counts decision lines and drops them; when every stream
// has written warm lines it snapshots the allocator, once.
type discardFraming struct {
	written, warmed *atomic.Int64
	streams, warm   int64
	n               int64
	at              *runtime.MemStats
	atTotal         *int64
}

func (f *discardFraming) WriteLine([]byte) error {
	f.n++
	total := f.written.Add(1)
	if f.n == f.warm && f.warmed.Add(1) == f.streams {
		*f.atTotal = total
		runtime.ReadMemStats(f.at)
	}
	return nil
}

func (*discardFraming) Flush() {}

// TestPumpSteadyStateAllocs pins the tentpole of the segment path: once
// warm, a segment costs no heap allocation from its observation line to its
// decision line — 4 channels × 2 000 lines through serve.Pump over a real
// DetectorPool (exact scoring, Batch 16, no journal) into a discarding
// framing, measured as the allocator's Mallocs delta per segment. Decode
// writes into the slot's arrays, the detector copies into rows it recycles,
// the encoder appends into the pump's line buffer.
func TestPumpSteadyStateAllocs(t *testing.T) {
	const (
		channels = 4
		lines    = 2000
		warm     = 500
		// warmLanes is the widest batch, 16, past the template's q = 4.
		warmLanes = 16 + 4
	)
	tmpl := trainTemplate(t)
	p := newTestPool(t, Config{Shards: 2, QueueDepth: 64, Batch: 16})
	ids := []string{"a", "b", "c", "d"}
	acts, auds := testStream(11, 64)
	msgs := make([][]byte, len(acts))
	for i := range acts {
		line := wire.AppendObservation(nil, acts[i], auds[i])
		msgs[i] = line[:len(line)-1]
	}
	var (
		written, warmed atomic.Int64
		before, after   runtime.MemStats
		warmTotal       int64
		wg              sync.WaitGroup
	)
	stop := make(chan struct{})
	defer close(stop)
	for _, id := range ids {
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		// Size the detector for the widest run a Batch-16 shard can hand
		// it — 16 predicted lanes past the q = 4 warm-up ones — so a
		// late-widening batch grows nothing; the rest of warm-up is the
		// streams' first lines.
		if _, err := det.ObserveBatch(acts[:warmLanes], auds[:warmLanes], make([]aovlis.Result, warmLanes)); err != nil {
			t.Fatal(err)
		}
		if err := p.Attach(id, det); err != nil {
			t.Fatal(err)
		}
		sent := 0
		feed := wire.Feed(stop, func() ([]byte, error) {
			if sent == lines {
				return nil, io.EOF
			}
			sent++
			return msgs[sent%len(msgs)], nil
		}, 2)
		pump := Pump{Pool: p, Channel: id, In: feed, Out: &discardFraming{
			written: &written, warmed: &warmed, streams: channels, warm: warm, at: &before, atTotal: &warmTotal}}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if n, err := pump.Run(); err != nil || n != lines {
				t.Errorf("pump %s: %d lines, %v", id, n, err)
			}
		}(id)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	for _, id := range ids {
		if st, _ := p.Stats(id); st.Observed != lines+warmLanes || st.Errors != 0 {
			t.Fatalf("channel %s: %+v, want %d scored", id, st, lines+warmLanes)
		}
	}
	segs := float64(channels*lines - warmTotal)
	perSeg := float64(after.Mallocs-before.Mallocs) / segs
	t.Logf("%d allocations over %.0f warm segments: %.4f per segment", after.Mallocs-before.Mallocs, segs, perSeg)
	if perSeg >= 0.01 {
		t.Fatalf("a warm segment allocates %.4f times from line to decision, want < 0.01", perSeg)
	}
}

func TestSetResultAndVerdict(t *testing.T) {
	d := wire.Decision{Channel: "c", Seq: 3}
	SetResult(&d, aovlis.Result{Warmup: true, Anomaly: true, Score: 2, Exact: true, Path: "exact", Updated: true})
	want := wire.Decision{Channel: "c", Seq: 3, Warmup: true, Anomaly: true, Score: 2, Exact: true, Path: "exact"}
	if d != want {
		t.Fatalf("SetResult: %+v, want %+v", d, want)
	}
	if !d.Verdict() {
		t.Fatalf("%+v is not a verdict", d)
	}
}

// TestSetResultNonFinite pins the line a non-finite score gets: score 0 and
// an Error naming the value, with the anomaly flag and the path kept — and
// the line still counts as a verdict.
func TestSetResultNonFinite(t *testing.T) {
	for _, score := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		d := wire.Decision{Channel: "c", Seq: 10}
		SetResult(&d, aovlis.Result{Anomaly: true, Score: score, Path: "JSmin"})
		line, err := wire.AppendDecision(nil, &d)
		if err != nil {
			t.Fatalf("score %v: %v", score, err)
		}
		want := `{"channel":"c","seq":10,"anomaly":true,"score":0,"exact":false,"path":"JSmin",` +
			`"error":"score is not finite: ` + strconv.FormatFloat(score, 'g', -1, 64) + `"}` + "\n"
		if string(line) != want {
			t.Errorf("score %v:\n got %s\nwant %s", score, line, want)
		}
		var back wire.Decision
		if err := wire.DecodeDecision(line, &back); err != nil || !back.Verdict() || !back.Anomaly {
			t.Errorf("score %v: decoded %+v (%v), want a verdict", score, back, err)
		}
	}
}
