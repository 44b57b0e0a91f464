// Package wire owns the segment path's two messages — the observation a
// client sends and the decision it gets back — and every place they are
// turned into bytes or back. The NDJSON observe endpoint, the WebSocket live
// plane, the cluster router (proxying and journal replay), the load
// generator and the SSE watch sink all speak these two shapes; each codec
// below is the single site to fuzz, pin with golden bytes, or make faster.
// It also owns both halves of the NDJSON transport: the server's (Feed,
// ScanLines, LineWriter) and the client's (Stream, with Refused and
// StatusError for what a node answers instead of decisions).
package wire

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Observation is one inbound segment: the action and audience feature
// vectors, as an NDJSON line or one WebSocket text message.
type Observation struct {
	Action   []float64 `json:"action"`
	Audience []float64 `json:"audience"`
}

// Decision is one outbound line, the answer to one observation.
type Decision struct {
	Channel string `json:"channel"`
	// Seq orders the decisions of one stream. On the NDJSON plane it is the
	// stream-local line index; on the live plane it is the channel's
	// accepted-decision sequence — equal to WSeq whenever the pool journals
	// — and 0 on lines that carry no verdict, which a client may resend.
	Seq     uint64  `json:"seq"`
	Warmup  bool    `json:"warmup,omitempty"`
	Anomaly bool    `json:"anomaly"`
	Score   float64 `json:"score"`
	Exact   bool    `json:"exact"`
	Path    string  `json:"path,omitempty"`
	// WSeq is the observation's WAL sequence on the node that scored it (0
	// without -wal-dir). A router records the highest wseq it has relayed
	// per channel, which is exactly the journal suffix it must replay to the
	// new owner when that node dies.
	WSeq uint64 `json:"wseq,omitempty"`
	// Dropped is kept because cmd/aovlis-bench reads it and
	// FuzzDecisionLine pins its encoding; no daemon sets it, since a full
	// queue waits rather than drops. Rejected marks a line refused by
	// admission control (the pool was past its reject watermark) — back
	// off and retry.
	Dropped  bool   `json:"dropped,omitempty"`
	Rejected bool   `json:"rejected,omitempty"`
	Error    string `json:"error,omitempty"`
}

// notFinite opens the Error of a verdict whose score JSON cannot carry.
const notFinite = "score is not finite: "

// SetScore sets a verdict's score. A score JSON cannot carry (NaN, ±Inf —
// a hostile observation can drive the bounds there) is sent as 0 with an
// Error naming it; the line keeps its anomaly flag and path and still
// counts as a verdict, so the stream goes on and a live client does not
// resend a segment that was applied.
func (d *Decision) SetScore(score float64) {
	d.Score = score
	if math.IsNaN(score) || math.IsInf(score, 0) {
		d.Score = 0
		d.Error = notFinite + strconv.FormatFloat(score, 'g', -1, 64)
	}
}

// Verdict reports whether the line carries a detector verdict (warm-up and
// a non-finite score included) rather than a parse error, a rejection or a
// detector error.
func (d *Decision) Verdict() bool {
	return (d.Error == "" || strings.HasPrefix(d.Error, notFinite)) && !d.Dropped && !d.Rejected
}

// DecodeObservation parses one observation line into o, reusing o's
// backing arrays. It either fails, leaving o empty, or leaves exactly the
// vectors encoding/json reads from the line into a zero Observation. The
// canonical line — one "action" and one "audience" array of numbers, in
// either order, with JSON whitespace between tokens — is scanned here
// without allocating; every other line (unknown, repeated or case-folded
// keys, null, escapes, numbers out of range, malformed input) goes through
// JSONReader, which accepts what encoding/json accepts and reads the same
// float bits, and fails with a JSONError naming the byte it stopped at.
func DecodeObservation(line []byte, o *Observation) error {
	if scanObservation(line, o) {
		return nil
	}
	*o = Observation{}
	var r JSONReader
	err := r.Reset(line)
	if err == nil && r.Object() {
		for r.More() {
			switch r.Key("action", "audience") {
			case 0:
				r.Floats(&o.Action)
			case 1:
				r.Floats(&o.Audience)
			default:
				r.Skip()
			}
		}
	}
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		*o = Observation{}
		return fmt.Errorf("bad observation line: %w", err)
	}
	return nil
}

// scanObservation is DecodeObservation's canonical-line scanner. It reports
// false on anything outside the canonical shape, having possibly written
// into o.
func scanObservation(b []byte, o *Observation) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	var action, audience bool
	for k := 0; k < 2; k++ {
		i = skipSpace(b, i+1)
		var dst *[]float64
		switch {
		case !action && bytes.HasPrefix(b[i:], []byte(`"action"`)):
			action, dst, i = true, &o.Action, i+len(`"action"`)
		case !audience && bytes.HasPrefix(b[i:], []byte(`"audience"`)):
			audience, dst, i = true, &o.Audience, i+len(`"audience"`)
		default:
			return false
		}
		if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
			return false
		}
		var ok bool
		if i, ok = scanFloats(b, skipSpace(b, i+1), dst); !ok {
			return false
		}
		if i = skipSpace(b, i); i == len(b) || b[i] != ",}"[k] {
			return false
		}
	}
	return skipSpace(b, i+1) == len(b)
}

// scanFloats reads the array of JSON numbers at b[i] into *dst's backing
// array and returns the index after its ']'. An empty array leaves a
// non-nil empty slice, as encoding/json does.
func scanFloats(b []byte, i int, dst *[]float64) (int, bool) {
	if i == len(b) || b[i] != '[' {
		return i, false
	}
	v := (*dst)[:0]
	if v == nil {
		v = []float64{}
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		*dst = v
		return i + 1, true
	}
	for {
		f, end, ok := number(b, i)
		if !ok {
			return i, false
		}
		v = append(v, f)
		if i = skipSpace(b, end); i == len(b) {
			return i, false
		}
		switch b[i] {
		case ']':
			*dst = v
			return i + 1, true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return i, false
		}
	}
}

// number reads the JSON number (RFC 8259 §6) at b[i] and returns its value
// and end. A mantissa of at most 19 digits below 2⁵³ with a decimal
// exponent within ±22 is one exact integer times or over an exact power of
// ten — a single correctly rounded operation (Clinger's fast path). The
// rest go to strconv.ParseFloat. Both round correctly, so the bits are the
// ones encoding/json reads; ok is false where ParseFloat fails (out of
// range), which encoding/json rejects too.
func number(b []byte, i int) (f float64, end int, ok bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64
	digits, exp := 0, 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			man = man*10 + uint64(b[i]-'0')
			digits++
		}
	default:
		return 0, i, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && isDigit(b[i]); i++ {
			man = man*10 + uint64(b[i]-'0')
			digits++
		}
		if i == frac {
			return 0, i, false
		}
		exp = frac - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		sign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		e, at := 0, i
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == at {
			return 0, i, false
		}
		exp += sign * e
	}
	if digits <= 19 && man < 1<<53 && -22 <= exp && exp <= 22 {
		f = float64(man)
		if exp < 0 {
			f /= pow10[-exp]
		} else {
			f *= pow10[exp]
		}
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, i, err == nil
}

// pow10 holds the powers of ten float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipSpace skips JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// AppendObservation appends the newline-terminated observation line for the
// two vectors to dst. Floats are written in shortest round-trip form, so the
// decoded features are bit-identical to the encoded ones — a journal replay
// scores exactly what the dead node scored.
func AppendObservation(dst []byte, action, audience []float64) []byte {
	dst = appendFloats(append(dst, `{"action":`...), action)
	dst = appendFloats(append(dst, `,"audience":`...), audience)
	return append(dst, '}', '\n')
}

func appendFloats(b []byte, vs []float64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// AppendDecision appends d's newline-terminated line to dst: json.Marshal's
// bytes, written without reflection or allocation. It fails only on a score
// JSON cannot carry (NaN, ±Inf), with json.Marshal's error text and dst
// unchanged.
func AppendDecision(dst []byte, d *Decision) ([]byte, error) {
	if math.IsNaN(d.Score) || math.IsInf(d.Score, 0) {
		return dst, &UnsupportedValueError{Str: strconv.FormatFloat(d.Score, 'g', -1, 64)}
	}
	dst = appendString(append(dst, `{"channel":`...), d.Channel)
	dst = strconv.AppendUint(append(dst, `,"seq":`...), d.Seq, 10)
	if d.Warmup {
		dst = append(dst, `,"warmup":true`...)
	}
	dst = strconv.AppendBool(append(dst, `,"anomaly":`...), d.Anomaly)
	dst = appendScore(append(dst, `,"score":`...), d.Score)
	dst = strconv.AppendBool(append(dst, `,"exact":`...), d.Exact)
	if d.Path != "" {
		dst = appendString(append(dst, `,"path":`...), d.Path)
	}
	if d.WSeq != 0 {
		dst = strconv.AppendUint(append(dst, `,"wseq":`...), d.WSeq, 10)
	}
	if d.Dropped {
		dst = append(dst, `,"dropped":true`...)
	}
	if d.Rejected {
		dst = append(dst, `,"rejected":true`...)
	}
	if d.Error != "" {
		dst = appendString(append(dst, `,"error":`...), d.Error)
	}
	return append(dst, '}', '\n'), nil
}

// decisionKeys are Decision's JSON member names, in field order.
var decisionKeys = []string{"channel", "seq", "warmup", "anomaly", "score", "exact", "path", "wseq", "dropped", "rejected", "error"}

// DecodeDecision parses one decision line: what json.Unmarshal reads into
// a zero Decision, and a JSONError where it fails.
func DecodeDecision(line []byte, d *Decision) error {
	*d = Decision{}
	var r JSONReader
	if err := r.Reset(line); err != nil {
		return err
	}
	if !r.Object() {
		return r.Err()
	}
	for r.More() {
		switch r.Key(decisionKeys...) {
		case 0:
			r.String(&d.Channel)
		case 1:
			r.Uint(&d.Seq)
		case 2:
			r.Bool(&d.Warmup)
		case 3:
			r.Bool(&d.Anomaly)
		case 4:
			r.Float(&d.Score)
		case 5:
			r.Bool(&d.Exact)
		case 6:
			r.String(&d.Path)
		case 7:
			r.Uint(&d.WSeq)
		case 8:
			r.Bool(&d.Dropped)
		case 9:
			r.Bool(&d.Rejected)
		case 10:
			r.String(&d.Error)
		default:
			r.Skip()
		}
	}
	return r.Err()
}
