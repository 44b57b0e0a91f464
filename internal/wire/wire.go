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
	"encoding/json"
	"fmt"
	"strconv"

	"aovlis"
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
	// Dropped marks a DropNewest queue overflow; Rejected marks a line
	// refused by admission control (the pool was past its reject watermark)
	// — back off and retry.
	Dropped  bool   `json:"dropped,omitempty"`
	Rejected bool   `json:"rejected,omitempty"`
	Error    string `json:"error,omitempty"`
}

// SetResult copies a detector verdict into the decision.
func (d *Decision) SetResult(r aovlis.Result) {
	d.Warmup, d.Anomaly, d.Score, d.Exact, d.Path = r.Warmup, r.Anomaly, r.Score, r.Exact, r.Path
}

// Verdict reports whether the line carries a detector verdict (warm-up
// included) rather than a parse error, a drop, a rejection or a detector
// error.
func (d *Decision) Verdict() bool {
	return d.Error == "" && !d.Dropped && !d.Rejected
}

// DecodeObservation parses one observation line into o. It either fails or
// leaves exactly the line's two vectors in o.
func DecodeObservation(line []byte, o *Observation) error {
	*o = Observation{}
	if err := json.Unmarshal(line, o); err != nil {
		*o = Observation{}
		return fmt.Errorf("bad observation line: %w", err)
	}
	return nil
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

// AppendDecision appends d's newline-terminated line to dst. It fails only
// on a score JSON cannot carry (NaN, ±Inf).
func AppendDecision(dst []byte, d *Decision) ([]byte, error) {
	b, err := json.Marshal(d)
	if err != nil {
		return dst, err
	}
	return append(append(dst, b...), '\n'), nil
}

// DecodeDecision parses one decision line.
func DecodeDecision(line []byte, d *Decision) error {
	*d = Decision{}
	return json.Unmarshal(line, d)
}
