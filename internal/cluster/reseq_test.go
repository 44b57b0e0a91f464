package cluster

import (
	"bytes"
	"math"

	"testing"

	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// reseqCases are decision lines a node writes, including the strings JSON
// must escape and ones that spell the seq key themselves.
var reseqCases = []wire.Decision{
	{Channel: "a", Seq: 0, Warmup: true, Exact: true},
	{Channel: "cam-7", Seq: 3, Anomaly: true, Score: 0.8125, Exact: true, Path: "exact", WSeq: 41},
	{Channel: `q"seq":9`, Seq: 12, Score: 1e-9, Path: "tier-skip", WSeq: 12},
	{Channel: `back\slash <&> ünï` + " \x01", Seq: 99, Score: -2.5e21, Exact: true},
	{Channel: "x", Seq: math.MaxUint64, Error: `score is not finite: +Inf`, Path: "exact"},
	{Channel: "err", Seq: 5, Error: `bad line: "seq":7 at "wseq":8`},
	{Channel: "r", Seq: 6, Rejected: true},
	{Channel: "d", Seq: 1234567, Dropped: true, WSeq: 1},
}

// TestReseqMatchesAppendDecision pins the router's seq rewrite to the
// encoder: a node's line with its seq replaced is, byte for byte, the line
// AppendDecision writes for the decision carrying the client's seq.
func TestReseqMatchesAppendDecision(t *testing.T) {
	for _, d := range reseqCases {
		raw, err := wire.AppendDecision(nil, &d)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range []uint64{0, 7, 1 << 40, math.MaxUint64} {
			got, ok := appendReseq([]byte("prefix:"), raw, seq)
			want := d
			want.Seq = seq
			line, err := wire.AppendDecision([]byte("prefix:"), &want)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || !bytes.Equal(got, line) {
				t.Fatalf("seq %d over %s: rewrote to %q (ok %v), want %q", seq, raw, got, ok, line)
			}
		}
	}
	for _, bad := range []string{`{"channel":"a"}`, `{"channel":"a","seq":}`, ``} {
		if _, ok := appendReseq(nil, []byte(bad), 1); ok {
			t.Fatalf("rewrote %q, which carries no seq", bad)
		}
	}
}

// lineSink is a ResponseWriter that keeps only the bytes of its last write.
type lineSink struct {
	wiretest.Recorder
	last []byte
}

func (w *lineSink) Write(b []byte) (int, error) {
	w.last = append(w.last[:0], b...)
	return len(b), nil
}

// TestRotatedDeliverAllocs drives deliver on a stream whose connection was
// rotated — node seqs restart at 0, client seqs run on — and pins that
// every decision reaches the client as AppendDecision's line for the
// client's seq, without one allocation. The parent decoded each line with
// encoding/json and encoded it afresh.
func TestRotatedDeliverAllocs(t *testing.T) {
	r := &Router{tbl: newTable()}
	r.m = newRouterMetrics(r)
	sink := &lineSink{}
	ps := &proxyStream{
		r: r, entry: &entry{id: "a"}, out: wire.NewLineWriter(sink),
		pending: make([]slot, 1),
		up:      &upstream{node: &Node{Spec: NodeSpec{Name: "n1"}}, offset: 1000},
	}
	raws := make([][]byte, len(reseqCases))
	for i := range reseqCases {
		raws[i], _ = wire.AppendDecision(nil, &reseqCases[i])
	}
	i := 0
	deliver := func() {
		d := reseqCases[i%len(raws)]
		ps.pending[0].seq = 1000 + uint64(i)
		ps.tail, ps.npending = 0, 1
		if err := ps.deliver(raws[i%len(raws)]); err != nil {
			t.Fatal(err)
		}
		d.Seq = ps.pending[0].seq
		if want, _ := wire.AppendDecision(nil, &d); !bytes.Equal(sink.last, want) {
			t.Fatalf("delivered %q, want %q", sink.last, want)
		}
		i++
	}
	for range raws {
		deliver()
	}
	if got := ps.entry.wseq.Load(); got != 41 {
		t.Fatalf("wseq high-water mark %d, want 41", got)
	}
	// The comparison above allocates; count deliver alone.
	if n := testing.AllocsPerRun(200, func() {
		ps.pending[0].seq = 1000 + uint64(i)
		ps.tail, ps.npending = 0, 1
		if err := ps.deliver(raws[i%len(raws)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("a rotated decision allocates %v times, want 0", n)
	}
}
