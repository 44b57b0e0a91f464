package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"aovlis"
)

// TestDecisionGoldenBytes pins the decision line byte for byte: every
// plane, the router's pass-through scraper and every deployed client parse
// exactly this shape.
func TestDecisionGoldenBytes(t *testing.T) {
	cases := []struct {
		name string
		d    Decision
		want string
	}{
		{"every field set", Decision{
			Channel: "alice", Seq: 7, Warmup: true, Anomaly: true, Score: 0.125, Exact: true,
			Path: "JSmax", WSeq: 9, Dropped: true, Rejected: true, Error: "boom <&>",
		}, `{"channel":"alice","seq":7,"warmup":true,"anomaly":true,"score":0.125,"exact":true,` +
			`"path":"JSmax","wseq":9,"dropped":true,"rejected":true,"error":"boom \u003c\u0026\u003e"}` + "\n"},
		{"all omitempty fields empty", Decision{},
			`{"channel":"","seq":0,"anomaly":false,"score":0,"exact":false}` + "\n"},
	}
	for _, tc := range cases {
		got, err := AppendDecision([]byte("kept:"), &tc.d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != "kept:"+tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		var back Decision
		if err := DecodeDecision(got[len("kept:"):], &back); err != nil || back != tc.d {
			t.Errorf("%s: round trip %+v, %v", tc.name, back, err)
		}
	}
	if _, err := AppendDecision(nil, &Decision{Score: math.NaN()}); err == nil {
		t.Error("NaN score encoded")
	}
}

func TestSetResultAndVerdict(t *testing.T) {
	d := Decision{Channel: "c", Seq: 3}
	d.SetResult(aovlis.Result{Warmup: true, Anomaly: true, Score: 2, Exact: true, Path: "exact", Updated: true})
	want := Decision{Channel: "c", Seq: 3, Warmup: true, Anomaly: true, Score: 2, Exact: true, Path: "exact"}
	if d != want {
		t.Fatalf("SetResult: %+v, want %+v", d, want)
	}
	for _, tc := range []struct {
		d    Decision
		want bool
	}{
		{Decision{}, true},
		{Decision{Warmup: true}, true},
		{Decision{Error: "x"}, false},
		{Decision{Dropped: true}, false},
		{Decision{Rejected: true}, false},
	} {
		if got := tc.d.Verdict(); got != tc.want {
			t.Errorf("Verdict(%+v) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

// TestAppendObservation pins the observation line and its bit-exact round
// trip through the decoder (what journal replay relies on).
func TestAppendObservation(t *testing.T) {
	for _, tc := range []struct {
		action, audience []float64
		want             string
	}{
		{nil, nil, `{"action":[],"audience":[]}` + "\n"},
		{[]float64{1}, []float64{0.5, -2, 3.25}, `{"action":[1],"audience":[0.5,-2,3.25]}` + "\n"},
	} {
		if got := string(AppendObservation(nil, tc.action, tc.audience)); got != tc.want {
			t.Errorf("AppendObservation(%v, %v) = %q, want %q", tc.action, tc.audience, got, tc.want)
		}
	}
	action := []float64{0.1, 1e-300, 1e21, -0.0, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3}
	audience := []float64{123456789.123456789, 5e-324}
	var o Observation
	if err := DecodeObservation(AppendObservation(nil, action, audience), &o); err != nil {
		t.Fatal(err)
	}
	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !sameBits(o.Action, action) || !sameBits(o.Audience, audience) {
		t.Fatalf("round trip changed bits: %v / %v", o.Action, o.Audience)
	}
}

// FuzzObservationLine hammers the one decode site behind /observe, /live
// and router replay: it must never panic, and it must either reject the
// line (leaving o empty) or return exactly the vectors encoding/json reads
// from it — which then re-encode and decode to the same bits.
func FuzzObservationLine(f *testing.F) {
	for _, seed := range []string{
		`{"action":[0.1,0.2],"audience":[0.3]}`,
		`{"action":[],"audience":[]}`,
		`{}`, `null`, ``, `[1,2]`, `{"action":[0.1,`, `{"action":"x","audience":[1]}`,
		`{"action":[1e999],"audience":[1]}`, `{"action":[1],"audience":[1]} trailing`,
		`{"action":[1],"audience":[1]}{"action":[2]}`, `{"action":[null,1],"audience":null}`,
		`{"ACTION":[1],"audience":[2],"extra":{"deep":[[[]]]}}`,
		`{"action":[` + strings.Repeat("1,", 5000) + `1],"audience":[]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		o := Observation{Action: []float64{42}, Audience: []float64{42}} // stale contents must not survive
		err := DecodeObservation(line, &o)
		var ref Observation
		refErr := json.Unmarshal(line, &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeObservation err %v, encoding/json err %v", err, refErr)
		}
		if err != nil {
			if o.Action != nil || o.Audience != nil {
				t.Fatalf("rejected line left vectors behind: %+v", o)
			}
			return
		}
		if !reflect.DeepEqual(o, ref) {
			t.Fatalf("decoded %+v, encoding/json reads %+v", o, ref)
		}
		var back Observation
		if err := DecodeObservation(AppendObservation(nil, o.Action, o.Audience), &back); err != nil {
			t.Fatalf("re-encoded line rejected: %v", err)
		}
		for i := range o.Action {
			if math.Float64bits(back.Action[i]) != math.Float64bits(o.Action[i]) {
				t.Fatalf("action[%d] changed bits across re-encode", i)
			}
		}
		for i := range o.Audience {
			if math.Float64bits(back.Audience[i]) != math.Float64bits(o.Audience[i]) {
				t.Fatalf("audience[%d] changed bits across re-encode", i)
			}
		}
	})
}

// TestFeedScanLines drives the feeder over an NDJSON body: blank lines are
// skipped, lines are trimmed, buffers recycle, and an over-long line
// surfaces as Err after C closes.
func TestFeedScanLines(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	f := Feed(stop, ScanLines(strings.NewReader("  a \n\n\r\nbb\nccc")), 2)
	var got []string
	for line := range f.C {
		got = append(got, string(line))
		f.Recycle(line)
	}
	if want := []string{"a", "bb", "ccc"}; !reflect.DeepEqual(got, want) || f.Err() != nil {
		t.Fatalf("lines %q err %v, want %q", got, f.Err(), want)
	}

	long := bytes.Repeat([]byte{'x'}, 1<<20+1)
	f = Feed(stop, ScanLines(io.MultiReader(strings.NewReader("ok\n"), bytes.NewReader(long))), 2)
	n := 0
	for line := range f.C {
		n++
		f.Recycle(line)
	}
	if n != 1 || f.Err() == nil {
		t.Fatalf("over-long line: %d lines, err %v", n, f.Err())
	}
}

// TestFeedStop pins that closing stop releases a feeder parked on a buffer
// nobody will recycle, and that a reader error other than io.EOF is kept.
func TestFeedStop(t *testing.T) {
	stop := make(chan struct{})
	calls := 0
	boom := errors.New("boom")
	f := Feed(stop, func() ([]byte, error) {
		calls++
		return []byte("m"), nil
	}, 2)
	<-f.C // one message taken and never recycled; the feeder parks waiting for a buffer
	close(stop)
	for range f.C {
	}
	if calls == 0 {
		t.Fatal("reader never ran")
	}

	f = Feed(make(chan struct{}), func() ([]byte, error) { return nil, boom }, 2)
	for range f.C {
	}
	if !errors.Is(f.Err(), boom) {
		t.Fatalf("Err = %v, want boom", f.Err())
	}
}

// chunkReader delivers at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// TestScanLinesBounds pins what a stream may send, however its bytes
// arrive: blank lines vanish, CRLF and padding are trimmed, a line of
// MaxLine−1 bytes (MaxLine with its terminator) comes back whole, one byte
// more ends the stream with bufio.ErrTooLong — and the buffer grows with the
// line, so a stream of ordinary lines never holds more than it started with.
func TestScanLinesBounds(t *testing.T) {
	line := func(n int) string { return strings.Repeat("x", n) }
	ordinary := make([]string, 10000)
	for i := range ordinary {
		ordinary[i] = line(1400)
	}
	cases := []struct {
		name, in string
		want     []string
		err      error // nil: the stream ends cleanly
		big      bool  // MiB-sized lines: quadratic to scan a byte at a time, and meant to grow the buffer
	}{
		{name: "blank and CRLF", in: "  a \r\n\n\r\n \t\nbb\r\nccc", want: []string{"a", "bb", "ccc"}},
		{name: "longest line", in: "a\n" + line(MaxLine-1) + "\nz\n", want: []string{"a", line(MaxLine - 1), "z"}, big: true},
		{name: "longest line unterminated", in: line(MaxLine - 1), want: []string{line(MaxLine - 1)}, big: true},
		{name: "one byte over", in: "a\n" + line(MaxLine) + "\nz\n", want: []string{"a"}, err: bufio.ErrTooLong, big: true},
		{name: "ordinary stream", in: strings.Join(ordinary, "\n"), want: ordinary},
	}
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"1 byte", func(r io.Reader) io.Reader { return chunkReader{r, 1} }},
		{"4 KiB", func(r io.Reader) io.Reader { return chunkReader{r, 4 << 10} }},
		{"all at once", func(r io.Reader) io.Reader { return r }},
	}
	for _, tc := range cases {
		for _, rd := range readers {
			if tc.big && rd.name == "1 byte" {
				continue
			}
			t.Run(tc.name+"/"+rd.name, func(t *testing.T) {
				next := ScanLines(rd.wrap(strings.NewReader(tc.in)))
				n, maxCap := 0, 0
				var err error
				for {
					var got []byte
					if got, err = next(); err != nil {
						break
					}
					if n >= len(tc.want) || string(got) != tc.want[n] {
						t.Fatalf("line %d = %.20q… (%d bytes), want %d lines", n, got, len(got), len(tc.want))
					}
					maxCap = max(maxCap, cap(got))
					n++
				}
				wantErr := tc.err
				if wantErr == nil {
					wantErr = io.EOF
				}
				if n != len(tc.want) || err != wantErr {
					t.Fatalf("%d lines then %v, want %d then %v", n, err, len(tc.want), wantErr)
				}
				if !tc.big && maxCap > scanBufInit {
					t.Fatalf("line buffer grew to %d bytes over lines that fit its initial %d", maxCap, scanBufInit)
				}
			})
		}
	}
}
