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

// TestDeliverAllocs drives deliver with node seqs that run apart from the
// client's — as on every connection, a node numbers from wherever its
// connection began — and pins that every decision reaches the client as
// AppendDecision's line for the client's seq, without one allocation.
func TestDeliverAllocs(t *testing.T) {
	r := &Router{tbl: newTable()}
	r.m = newRouterMetrics(r)
	sink := &lineSink{}
	ps := &proxyStream{
		r: r, entry: &entry{id: "a"}, out: wire.NewLineWriter(sink),
		pending: make([]slot, 1),
		up:      &upstream{node: &Node{Spec: NodeSpec{Name: "n1"}}},
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
		t.Fatalf("a delivered decision allocates %v times, want 0", n)
	}
}

// TestRouterNumbersEveryLine pins the one seq rule: the client sees its
// own stream's numbering, 0, 1, 2, …, on a first connection too, whatever
// the node numbers its lines with.
func TestRouterNumbersEveryLine(t *testing.T) {
	stubs, _, srv := newTestCluster(t, 1, nil)
	stubs[0].seqFrom.Store(5)
	decs := observeThrough(t, srv.URL, "first", []string{obsLine(0.1), "not json", obsLine(0.3), obsLine(0.4)})
	if len(decs) != 4 {
		t.Fatalf("got %d decisions for 4 lines", len(decs))
	}
	for i, d := range decs {
		if d.Seq != uint64(i) || d.Channel != "first" {
			t.Fatalf("decision %d: %+v, want seq %d — the node's numbering leaked through", i, d, i)
		}
	}
}

// FuzzReseq pins the rewrite every relayed decision takes to the encoder
// over any decision: its line with the seq replaced is AppendDecision's
// line for the decision carrying that seq, and scanWseq reads its wseq.
func FuzzReseq(f *testing.F) {
	for _, d := range reseqCases {
		f.Add(d.Channel, d.Error, d.Path, d.Seq, d.WSeq, d.Seq^d.WSeq, d.Score, flagBits(d))
	}
	f.Fuzz(func(t *testing.T, channel, errStr, path string, seq, wseq, to uint64, score float64, flags uint8) {
		d := wire.Decision{Channel: channel, Seq: seq, Score: score, Path: path, WSeq: wseq, Error: errStr,
			Warmup: flags&1 != 0, Anomaly: flags&2 != 0, Exact: flags&4 != 0, Dropped: flags&8 != 0, Rejected: flags&16 != 0}
		raw, err := wire.AppendDecision(nil, &d)
		if err != nil {
			return // a score JSON cannot carry: no node writes the line
		}
		want := d
		want.Seq = to
		line, _ := wire.AppendDecision(nil, &want)
		if got, ok := appendReseq(nil, raw, to); !ok || !bytes.Equal(got, line) {
			t.Fatalf("seq %d over %s: rewrote to %q (ok %v), want %q", to, raw, got, ok, line)
		}
		if got := scanWseq(raw); got != wseq {
			t.Fatalf("scanned wseq %d from %s, want %d", got, raw, wseq)
		}
	})
}

// flagBits packs a decision's flags the way FuzzReseq unpacks them.
func flagBits(d wire.Decision) uint8 {
	var b uint8
	for i, set := range []bool{d.Warmup, d.Anomaly, d.Exact, d.Dropped, d.Rejected} {
		if set {
			b |= 1 << i
		}
	}
	return b
}
