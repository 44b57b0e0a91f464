package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"aovlis/internal/wire"
)

// HTTPReplay streams a schedule over the aovlisd/aovlisr HTTP observe API:
// one pipelined NDJSON stream per channel against BaseURL, paced open-loop
// by the schedule, with a bounded unacknowledged window per stream. It is
// the multi-endpoint counterpart of Replay — point it at a single node or
// at a router fronting a fleet; the API is identical by design.
type HTTPReplay struct {
	// BaseURL is the serving endpoint, e.g. "http://127.0.0.1:7600".
	BaseURL string
	// Window bounds unacknowledged lines per channel stream (0 → 32).
	Window int
	// Backoff honors whole-stream 429s: sleep the server's Retry-After,
	// reopen, resend the unacknowledged window — the full client loop for
	// the admission-control path. Without it a 429 fails the run.
	Backoff bool
	// MaxRetries bounds reopen attempts per stream (0 → 3). Stream-level
	// transport failures retry through the same budget when Backoff is
	// set, covering brief owner failovers when pointed directly at nodes.
	MaxRetries int
}

// HTTPResult aggregates a replayed run.
type HTTPResult struct {
	Sent      int // observation lines written
	Decisions int // decision lines received (== Sent on a clean run)
	Verdicts  int // decisions that scored (not rejected/errored)
	Rejected  int
	Errors    int
	Retried   int           // whole-stream 429/transport retries honored
	Backoff   time.Duration // cumulative Retry-After honored
	Elapsed   time.Duration // first submit to last decision
	P50, P99  time.Duration // per-line submit→decision latency
}

// SegsPerSec is the aggregate acknowledged throughput of the run.
func (r HTTPResult) SegsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Decisions) / r.Elapsed.Seconds()
}

// queuedLine is one encoded observation handed to a channel worker.
type queuedLine struct {
	buf []byte // JSON line, newline-terminated
	t   time.Time
}

// Run replays the schedule. It returns an error when any stream fails
// terminally (transport death or 429 beyond the retry budget); the result
// is valid either way and reports everything acknowledged before the
// failure.
func (h *HTTPReplay) Run(s *Schedule) (HTTPResult, error) {
	window := h.Window
	if window <= 0 {
		window = 32
	}
	retries := h.MaxRetries
	if retries <= 0 {
		retries = 3
	}
	workers := make([]*streamWorker, s.Cfg.Channels)
	chans := make([]chan queuedLine, s.Cfg.Channels)
	var wg sync.WaitGroup
	started := time.Now()
	ensure := func(ci int) chan queuedLine {
		if chans[ci] != nil {
			return chans[ci]
		}
		w := &streamWorker{
			url:     h.BaseURL + "/channels/" + ChannelID(ci) + "/observe",
			backoff: h.Backoff, retries: retries,
			pending: make([]queuedLine, 0, window),
		}
		workers[ci] = w
		ch := make(chan queuedLine, window)
		chans[ci] = ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ch)
		}()
		return ch
	}

	var enc []byte
	s.Replay(func(a Arrival) {
		enc = wire.AppendObservation(enc[:0], a.Action, a.Audience)
		line := make([]byte, len(enc))
		copy(line, enc)
		ensure(a.ChannelIndex) <- queuedLine{buf: line, t: time.Now()}
	})
	for _, ch := range chans {
		if ch != nil {
			close(ch)
		}
	}
	wg.Wait()

	var res HTTPResult
	var firstErr error
	var lats []time.Duration
	for _, w := range workers {
		if w == nil {
			continue
		}
		res.Sent += w.sent
		res.Decisions += w.decisions
		res.Rejected += w.rejected
		res.Errors += w.errors
		res.Retried += w.retried
		res.Backoff += w.backoffTotal
		lats = append(lats, w.lats...)
		if w.err != nil && firstErr == nil {
			firstErr = w.err
		}
	}
	res.Verdicts = res.Decisions - res.Rejected - res.Errors
	res.Elapsed = time.Since(started)
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.P50 = lats[len(lats)*50/100]
		res.P99 = lats[min(len(lats)-1, len(lats)*99/100)]
	}
	return res, firstErr
}

// streamWorker drives one channel's observe stream: a bounded FIFO of
// unacknowledged lines, reopened (with resend) across 429 backoffs and,
// with Backoff set, transport failures.
type streamWorker struct {
	url     string
	backoff bool
	retries int

	pending []queuedLine // FIFO, oldest first; all written on current stream
	stream  *wire.Stream // nil until the first line; flushed before every blocking wait

	sent, decisions  int
	rejected, errors int
	retried          int
	// recoveries counts consecutive stream recoveries without a delivered
	// decision. Resent lines only reach the write buffer, so a reopen
	// "succeeds" before the server has said anything — if each recover()
	// call got a fresh retry budget, a node failing every stream would be
	// retried forever. The budget rearms only in readAck, on real progress.
	recoveries   int
	backoffTotal time.Duration
	lats         []time.Duration
	err          error
}

func (w *streamWorker) run(in chan queuedLine) {
	for {
		// Lines batch in the write buffer while the feed keeps up; the
		// buffer flushes only when the worker is about to block on the
		// feed (here) or on an acknowledgement (readAck) — one write
		// syscall per idle transition instead of one per line.
		var q queuedLine
		var ok bool
		select {
		case q, ok = <-in:
		default:
			if w.err == nil {
				if err := w.flush(); err != nil {
					w.fail(err)
				}
			}
			q, ok = <-in
		}
		if !ok {
			break
		}
		if w.err != nil {
			continue // drain the feed; the run already failed
		}
		if len(w.pending) == cap(w.pending) {
			if err := w.readAck(); err != nil {
				w.fail(err)
				continue
			}
		}
		if err := w.writeLine(q, true); err != nil {
			w.fail(err)
		}
	}
	for w.err == nil && len(w.pending) > 0 {
		if err := w.readAck(); err != nil {
			w.fail(err)
		}
	}
	w.close()
}

// fail records a terminal error after exhausting recovery.
func (w *streamWorker) fail(err error) {
	if rerr := w.recover(err); rerr != nil {
		w.err = rerr
	}
}

// recover reopens and resends after a broken stream or honored 429.
func (w *streamWorker) recover(cause error) error {
	if !w.backoff {
		return cause
	}
	for w.recoveries < w.retries {
		w.recoveries++
		var refused *wire.Refused
		if errors.As(cause, &refused) {
			ra := time.Duration(refused.Seconds()) * time.Second
			w.backoffTotal += ra
			time.Sleep(ra)
		} else {
			time.Sleep(100 * time.Millisecond)
		}
		w.retried++
		w.close()
		resend := append([]queuedLine(nil), w.pending...)
		w.pending = w.pending[:0]
		var err error
		for _, q := range resend {
			if err = w.writeLine(q, false); err != nil {
				break
			}
		}
		if err == nil {
			return nil
		}
		cause = err
	}
	return cause
}

// writeLine opens the stream lazily and sends one line, appending it to
// the unacknowledged FIFO. fresh distinguishes first sends (counted) from
// recovery resends (already counted).
func (w *streamWorker) writeLine(q queuedLine, fresh bool) error {
	if w.stream == nil {
		s, err := wire.OpenStream(context.Background(), nil, w.url)
		if err != nil {
			return err
		}
		w.stream = s
	}
	if err := w.stream.WriteLine(q.buf); err != nil {
		return err
	}
	if fresh {
		w.sent++
	}
	w.pending = append(w.pending, q)
	return nil
}

// flush pushes buffered observation lines onto the stream.
func (w *streamWorker) flush() error {
	if w.stream == nil {
		return nil
	}
	return w.stream.Flush()
}

// readAck consumes one decision line and resolves the oldest pending
// line.
func (w *streamWorker) readAck() error {
	if err := w.flush(); err != nil {
		return err // unflushed lines can never be acknowledged
	}
	raw, err := w.stream.Next()
	if err != nil {
		return fmt.Errorf("reading decision: %w", err)
	}
	var d wire.Decision
	if err := wire.DecodeDecision(raw, &d); err != nil {
		return fmt.Errorf("bad decision line %q: %w", raw, err)
	}
	q := w.pending[0]
	w.pending = w.pending[1:]
	w.decisions++
	w.recoveries = 0 // real progress: the retry budget rearms
	w.lats = append(w.lats, time.Since(q.t))
	switch {
	case d.Error != "":
		w.errors++
	case d.Rejected:
		w.rejected++
	}
	return nil
}

// close tears down the current stream, if any.
func (w *streamWorker) close() {
	if w.stream != nil {
		w.stream.Abort()
		w.stream = nil
	}
}
