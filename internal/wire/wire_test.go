package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
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

// TestVerdict: only a line that carries a detector verdict — warm-up and a
// non-finite score included — is one.
func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		d    Decision
		want bool
	}{
		{Decision{}, true},
		{Decision{Warmup: true}, true},
		{Decision{Error: notFinite + "NaN"}, true},
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
	if !sameBits(o.Action, action) || !sameBits(o.Audience, audience) {
		t.Fatalf("round trip changed bits: %v / %v", o.Action, o.Audience)
	}
}

// sameVector reports whether a and b hold the same bits and are both nil or
// both not: encoding/json tells `[]` (empty) from `null` or a missing key
// (nil), and so must the decoder.
func sameVector(a, b []float64) bool {
	return (a == nil) == (b == nil) && sameBits(a, b)
}

// sameBits reports whether a and b hold the same float bits.
func sameBits(a, b []float64) bool {
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

// canonicalLine is an observation line of the served shape (48 action and 19
// audience features, as the benchmark's fixture encodes them with
// encoding/json): a unit-norm action vector and audience features near 0.3.
func canonicalLine() []byte {
	rng := rand.New(rand.NewSource(1))
	o := Observation{Action: make([]float64, 48), Audience: make([]float64, 19)}
	var norm float64
	for i := range o.Action {
		o.Action[i] = 0.02 + rng.Float64()
		norm += o.Action[i] * o.Action[i]
	}
	for i := range o.Action {
		o.Action[i] /= math.Sqrt(norm)
	}
	for i := range o.Audience {
		o.Audience[i] = 0.3 + 0.03*rng.NormFloat64()
	}
	b, err := json.Marshal(o)
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzObservationLine hammers the one decode site behind /observe, /live
// and router replay: it must never panic, and it must either reject the
// line (leaving o empty) or return exactly the vectors encoding/json reads
// from it into a zero Observation — which then re-encode and decode to the
// same bits. Each line is decoded twice, into a zero Observation and into
// one holding longer stale vectors, because the scanner writes into the
// arrays it finds and nothing of them may show through.
func FuzzObservationLine(f *testing.F) {
	for _, seed := range []string{
		string(canonicalLine()),
		`{"action":[0.1,0.2],"audience":[0.3]}`,
		`{"audience":[0.3],"action":[0.1,0.2]}`,
		`{"action":[],"audience":[]}`,
		`{}`, `null`, ``, `[1,2]`, `{"action":[0.1,`, `{"action":"x","audience":[1]}`,
		`{"action":[1e999],"audience":[1]}`, `{"action":[1],"audience":[1]} trailing`,
		`{"action":[1],"audience":[1]}{"action":[2]}`, `{"action":[null,1],"audience":null}`,
		`{"ACTION":[1],"audience":[2],"extra":{"deep":[[[]]]}}`,
		`{"action":[` + strings.Repeat("1,", 5000) + `1],"audience":[]}`,
		// Number edges: JSON's grammar, and what strconv cannot carry.
		`{"action":[01],"audience":[1]}`, `{"action":[1.],"audience":[1]}`,
		`{"action":[.5],"audience":[1]}`, `{"action":[+1],"audience":[1]}`,
		`{"action":[-0],"audience":[1]}`, `{"action":[1E+2],"audience":[1]}`,
		`{"action":[1e-7],"audience":[1]}`, `{"action":[1e400],"audience":[1]}`,
		`{"action":[1e-400],"audience":[1]}`, `{"action":[-],"audience":[1]}`,
		`{"action":[1e],"audience":[1]}`, `{"action":[0x10],"audience":[1]}`,
		// Layout edges: whitespace around every token, trailing bytes.
		" \t{\r\n\"action\" :\t[ 1 ,\n2 ] ,\r\"audience\"\n: [ 3 ]\t}\n ",
		`{"action":[1],"audience":[2]},`, `{"action":[1],"audience":[2]}}`,
		`{"action":[1],"audience":[2]`, `{"action":[1] "audience":[2]}`, `{"action":[1,],"audience":[2]}`,
		// Key edges: repeated, case-folded, extra, escaped, missing, null.
		`{"action":[1],"action":[2],"audience":[3]}`, `{"Action":[1],"AUDIENCE":[2]}`,
		`{"action":[1],"audience":[2],"x":3}`, `{"\u0061ction":[1],"audience":[2]}`,
		`{"action":[1]}`, `{"audience":[2]}`, `{"action":[1],"audience":[null]}`,
		`{"action":null,"audience":[2]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var ref Observation
		refErr := json.Unmarshal(line, &ref)
		for _, start := range []Observation{
			{},
			{Action: filled(60, 42), Audience: filled(30, 43)}, // stale contents must not survive
		} {
			o := start
			err := DecodeObservation(line, &o)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("DecodeObservation err %v, encoding/json err %v", err, refErr)
			}
			if err != nil {
				if o.Action != nil || o.Audience != nil {
					t.Fatalf("rejected line left vectors behind: %+v", o)
				}
				continue
			}
			if !sameVector(o.Action, ref.Action) || !sameVector(o.Audience, ref.Audience) {
				t.Fatalf("decoded %+v from %d-long start, encoding/json reads %+v", o, len(start.Action), ref)
			}
			var back Observation
			if err := DecodeObservation(AppendObservation(nil, o.Action, o.Audience), &back); err != nil {
				t.Fatalf("re-encoded line rejected: %v", err)
			}
			if !sameBits(back.Action, o.Action) || !sameBits(back.Audience, o.Audience) {
				t.Fatalf("re-encode changed bits: %+v, then %+v", o, back)
			}
		}
	})
}

// filled is n copies of v.
func filled(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// FuzzDecisionLine covers the router's ack reader, which parses every
// decision line a node sends: DecodeDecision must accept and reject exactly
// what encoding/json does, with the same Decision, and the line AppendDecision
// writes for that Decision must be json.Marshal's byte for byte. The seed
// corpus is in testdata/fuzz/FuzzDecisionLine.
func FuzzDecisionLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, ref Decision
		err := DecodeDecision(line, &got)
		refErr := json.Unmarshal(line, &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeDecision err %v, encoding/json err %v", err, refErr)
		}
		if err != nil {
			return
		}
		if got != ref {
			t.Fatalf("decoded %+v, encoding/json reads %+v", got, ref)
		}
		// A decoded score is always finite: encoding/json refuses numbers
		// out of float64's range, and JSON has no NaN.
		enc, err := AppendDecision(nil, &got)
		want, merr := json.Marshal(&got)
		if err != nil || merr != nil || string(enc) != string(want)+"\n" {
			t.Fatalf("AppendDecision = %q (%v), json.Marshal = %q (%v)", enc, err, want, merr)
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

// TestDecodeObservationSteadyStateAllocs pins the scanner's contract: the
// canonical line — and its whitespace-padded, key-swapped form — decodes
// into a warmed Observation without one heap allocation.
func TestDecodeObservationSteadyStateAllocs(t *testing.T) {
	for _, line := range [][]byte{
		canonicalLine(),
		[]byte(" { \"audience\" : [ 0.5 , 1E+2 ] ,\t\"action\" : [ 1 , -0 , 1e-7 ] } "),
	} {
		var o Observation
		if err := DecodeObservation(line, &o); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := DecodeObservation(line, &o); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("DecodeObservation of %.40q… allocates %v times, want 0", line, n)
		}
	}
}

// TestAppendDecisionSteadyStateAllocs pins the encoder at zero allocations
// into a warmed buffer.
func TestAppendDecisionSteadyStateAllocs(t *testing.T) {
	d := servedDecision()
	buf, err := AppendDecision(nil, &d)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendDecision(buf[:0], &d) }); n != 0 {
		t.Fatalf("AppendDecision allocates %v times, want 0", n)
	}
}

// servedDecision is a verdict line as a node sends it.
func servedDecision() Decision {
	return Decision{Channel: "ch-0", Seq: 123456, Anomaly: true, Score: 0.01234567890123, Path: "JSmin", WSeq: 123457}
}

// BenchmarkDecodeObservation decodes the served 48/19 line; json is
// encoding/json on the same line, the reference the scanner replaces.
func BenchmarkDecodeObservation(b *testing.B) {
	line := canonicalLine()
	b.Run("scan", func(b *testing.B) {
		var o Observation
		if err := DecodeObservation(line, &o); err != nil { // warm: the arrays the scanner reuses
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for i := 0; i < b.N; i++ {
			if err := DecodeObservation(line, &o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for i := 0; i < b.N; i++ {
			var o Observation
			if err := json.Unmarshal(line, &o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppendDecision encodes a verdict line; json is json.Marshal of
// the same Decision.
func BenchmarkAppendDecision(b *testing.B) {
	d := servedDecision()
	b.Run("append", func(b *testing.B) {
		buf, _ := AppendDecision(nil, &d) // warm: the buffer it appends into
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendDecision(buf[:0], &d)
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestDecodeObservationNumbers is the scanner's arithmetic against
// encoding/json over numbers a fuzzer rarely builds: shortest forms of
// random bit patterns, truncated and padded digit strings around 2⁵³ and
// the ±22 exponent edge, and exponent spellings.
func TestDecodeObservationNumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var nums []string
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		nums = append(nums, strconv.FormatFloat(f, 'g', -1, 64), strconv.FormatFloat(f, 'e', rng.Intn(25), 64))
		u := rng.Float64() * math.Pow(10, float64(rng.Intn(60)-30))
		nums = append(nums, strconv.FormatFloat(u, 'f', -1, 64), strconv.FormatFloat(u, 'e', -1, 64))
		m := strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(20)), 10)
		nums = append(nums, m, m+"e"+strconv.Itoa(rng.Intn(50)-25), "0."+m, "-"+m+".5E+"+strconv.Itoa(rng.Intn(30)))
	}
	nums = append(nums, "9007199254740992", "9007199254740993", "9007199254740991e22", "1e22", "1e23",
		"1e-22", "1e-23", "4.9e-324", "2.4703282292062327e-324", "1.7976931348623157e308", "1.7976931348623159e308",
		"0.0000000000000000000000001", "12345678901234567890", "1234567890123456789", "0e999", "-0.0e-5")
	for _, n := range nums {
		line := []byte(`{"action":[` + n + `],"audience":[]}`)
		var got, want Observation
		err, refErr := DecodeObservation(line, &got), json.Unmarshal(line, &want)
		if (err == nil) != (refErr == nil) || err == nil && !sameVector(got.Action, want.Action) {
			t.Fatalf("%s: decoded %v (%v), encoding/json reads %v (%v)", n, got.Action, err, want.Action, refErr)
		}
	}
}
