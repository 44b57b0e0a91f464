package serve

import (
	"errors"

	"aovlis"
	"aovlis/internal/wire"
)

// SetResult copies a detector verdict into a decision line; a score JSON
// cannot carry goes out as wire.Decision.SetScore sends it.
func SetResult(d *wire.Decision, r aovlis.Result) {
	d.Warmup, d.Anomaly, d.Exact, d.Path = r.Warmup, r.Anomaly, r.Exact, r.Path
	d.SetScore(r.Score)
}

// AdmitStream is the step a segment stream takes before its first message,
// on either framing, and reports whether the stream may start; when it may
// not, the refusal has been written. A pool in the reject state answers 429
// + Retry-After — cheaper for both sides than a stream of per-line
// rejections — and does so before ensure runs, so a refused stream on a new
// channel id neither clones a detector nor takes a channel slot. ensure
// creates the channel on first use (503 when it cannot); without one the
// channel must already be attached (404).
func (p *DetectorPool) AdmitStream(w wire.ResponseWriter, id string, ensure func(id string) error) bool {
	if p.AdmissionState() == AdmitReject {
		w.Header().Set("Retry-After", "1")
		wire.Error(w, "pool overloaded (admission reject), retry later", wire.StatusTooManyRequests)
		return false
	}
	if ensure != nil {
		if err := ensure(id); err != nil {
			wire.Error(w, err.Error(), wire.StatusUnavailable)
			return false
		}
	} else if _, err := p.Stats(id); err != nil {
		wire.Error(w, err.Error(), wire.StatusNotFound)
		return false
	}
	return true
}

// Framing is the outbound half of a segment stream's transport: the NDJSON
// observe endpoint and the WebSocket live plane are one Framing each (the
// inbound half is the Pump's wire.Feeder).
type Framing interface {
	// WriteLine hands the transport one newline-terminated decision line;
	// it may buffer.
	WriteLine(line []byte) error
	// Flush puts everything buffered on the wire. The pump calls it exactly
	// when it is about to block.
	Flush()
}

// Pump drives one channel's segment stream: observations in, decisions out
// strictly in message order, with up to Window submissions in flight —
// which is the per-channel backlog the shard workers amortise into batched
// inference passes. The pipeline is a fixed ring of slots, each with a
// recycled outcome channel (SubmitInto) and an observation the slot's
// message decodes into, so a message costs no allocation from decode to
// decision line — at tens of thousands of segments per second per-segment
// garbage is the GC's whole workload. A slot's vectors are frozen from its
// submission until its outcome is consumed (SubmitInto's contract); the
// detector copies what it keeps, so the next message in the slot may
// overwrite them.
type Pump struct {
	Pool    *DetectorPool
	Channel string
	// Window is the pipeline depth; ≤ 1 degenerates to submit-wait-respond
	// per message.
	Window int
	In     *wire.Feeder
	Out    Framing
	// Seal, when set, replaces wire.AppendDecision as the step that turns a
	// decided slot into its line. It runs once per decision, in stream
	// order, as soon as the decision's fate is known — including for
	// submissions still in flight when the stream ends, whose lines are
	// sealed but never written. The live plane stamps its accepted-decision
	// seq and rings the decision here.
	Seal func(dst []byte, d *wire.Decision) ([]byte, error)
}

// Run pumps until the input ends and every decision is written (nil), or
// until a line cannot be sealed or written (that error). It also returns
// the number of messages consumed — the stream-local seq a trailing line
// would carry. On every path it consumes the outcome of every submission
// it made before returning.
func (p *Pump) Run() (uint64, error) {
	window := max(p.Window, 1)
	// Ring state: slot s holds the decision skeleton decs[s], the decoded
	// message obs[s] and, when pending[s], an in-flight submission whose
	// outcome arrives on outs[s]. Slots [head-inflight, head) are occupied,
	// oldest first.
	outs := make([]chan Outcome, window)
	for i := range outs {
		outs[i] = make(chan Outcome, 1)
	}
	decs := make([]wire.Decision, window)
	obs := make([]wire.Observation, window)
	pending := make([]bool, window)
	head, inflight := 0, 0
	var seq uint64
	var line []byte

	seal := p.Seal
	if seal == nil {
		seal = wire.AppendDecision
	}
	resolve := func(s int, o Outcome) {
		pending[s] = false
		decs[s].WSeq = o.Seq
		if o.Err != nil {
			decs[s].Error = o.Err.Error()
		} else {
			SetResult(&decs[s], o.Result)
		}
	}
	defer func() {
		// Never leave submissions unconsumed, whatever path exits: their
		// segments are queued on the shard regardless. With a Seal hook the
		// drained decisions are sealed too — the floor a live reconnect
		// sees must cover them, or the client would resend accepted
		// segments.
		for ; inflight > 0; inflight-- {
			s := (head + window - inflight) % window
			if pending[s] {
				resolve(s, <-outs[s])
				if p.Seal != nil {
					line, _ = p.Seal(line[:0], &decs[s])
				}
			}
		}
	}()
	// accept decides one message's fate as far as submit time can: the one
	// place a line becomes a parse error, a drop, a rejection, a submit
	// error or an in-flight submission.
	accept := func(msg []byte) {
		d, o := &decs[head], &obs[head]
		*d = wire.Decision{Channel: p.Channel, Seq: seq}
		err := wire.DecodeObservation(msg, o)
		if err == nil {
			err = p.Pool.SubmitInto(p.Channel, o.Action, o.Audience, outs[head])
		}
		switch {
		case err == nil:
			pending[head] = true
		case errors.Is(err, ErrRejected):
			d.Rejected = true // nothing lost: back off and resend
		case errors.Is(err, ErrOverloaded):
			d.Dropped = true
		default:
			d.Error = err.Error()
		}
		head = (head + 1) % window
		inflight++
		seq++
	}

	for open := true; open || inflight > 0; {
		oldest := (head + window - inflight) % window
		if inflight > 0 && !pending[oldest] {
			// Decided at submit time or by a received outcome: stream it
			// out before anything else.
			var err error
			if line, err = seal(line[:0], &decs[oldest]); err == nil {
				err = p.Out.WriteLine(line)
			}
			if err != nil {
				return seq, err
			}
			inflight--
			continue
		}
		in := p.In.C
		if !open || inflight == window {
			in = nil // window full (or end of input): only an outcome makes progress
		}
		var out chan Outcome
		if inflight > 0 {
			out = outs[oldest] // pending[oldest] holds here
		}
		var (
			msg   []byte
			more  bool
			isMsg bool
			o     Outcome
		)
		select {
		case msg, more = <-in:
			isMsg = true
		case o = <-out:
		default:
			// Nothing immediately available: flush buffered decisions
			// before blocking. (in and out cannot both be nil here — that
			// would need end of input plus an empty pipeline, which ends
			// the loop.)
			p.Out.Flush()
			select {
			case msg, more = <-in:
				isMsg = true
			case o = <-out:
			}
		}
		switch {
		case !isMsg:
			resolve(oldest, o)
		case !more:
			open = false
		default:
			accept(msg)
			p.In.Recycle(msg)
		}
	}
	return seq, nil
}
