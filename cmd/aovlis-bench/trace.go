package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"aovlis"
	"aovlis/internal/serve"
)

// Span names, in the daemon's order. The hierarchy is static: the segment
// root has decode, submit, await and encode as children; the journal append
// happens inside submit; observe and the verdict sinks (ledger append, watch
// hub publish) run on the shard worker while the pump awaits the outcome.
const (
	spSegment = iota
	spDecode
	spSubmit
	spWAL
	spAwait
	spObserve
	spLedger
	spPublish
	spEncode
	spCount
)

var spanNames = [spCount]string{
	"segment", "wire.decode", "serve.submit", "wal.append", "serve.await",
	"aovlis.observe", "ledger.append", "live.publish", "wire.encode",
}

var spanParent = [spCount]int{
	spSegment: -1, spDecode: spSegment, spSubmit: spSegment, spWAL: spSubmit, spAwait: spSegment,
	spObserve: spAwait, spLedger: spAwait, spPublish: spAwait, spEncode: spSegment,
}

// span is one timed call into a layer. Spans of one segment share
// (Channel, Seq); Parent is the index of the causing span in the trace, -1
// for a segment root.
type span struct {
	Name    string `json:"name"`
	Channel int    `json:"channel"`
	Seq     int    `json:"seq"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// recorder keeps spans in memory. A nil recorder, or one switched off for
// the segment in flight, records nothing. Spans arrive from the pump
// goroutine and from shard workers, so slots are claimed atomically.
type recorder struct {
	epoch time.Time
	spans []rawSpan
	n     atomic.Int64
	on    atomic.Bool
	// cur[c] is the segment channel c has in flight: the pipeline is
	// synchronous per channel, so worker-side spans read their seq here.
	cur []atomic.Int32
}

type rawSpan struct {
	name       uint8
	ch         uint16
	seq        int32
	start, end int64
}

func newRecorder(channels, segments int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]rawSpan, channels*segments*spCount), cur: make([]atomic.Int32, channels)}
}

// segment announces channel ch's next segment and whether it is traced.
func (r *recorder) segment(ch, seq int, traced bool) {
	if r == nil {
		return
	}
	r.cur[ch].Store(int32(seq))
	r.on.Store(traced)
}

// begin returns the span's start instant (0 with spans off).
func (r *recorder) begin() int64 {
	if r == nil || !r.on.Load() {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// end records the span begun at start for channel ch's in-flight segment.
func (r *recorder) end(name, ch int, start int64) {
	if r == nil || !r.on.Load() {
		return
	}
	end := int64(time.Since(r.epoch))
	i := r.n.Add(1) - 1
	if int(i) < len(r.spans) {
		r.spans[i] = rawSpan{name: uint8(name), ch: uint16(ch), seq: r.cur[ch].Load(), start: start, end: end}
	}
}

// export resolves parent links: a span's parent is the span of its
// parent's name in the same segment.
func (r *recorder) export() []span {
	raw := r.spans[:min(int(r.n.Load()), len(r.spans))]
	type key struct {
		ch, seq int32
		name    uint8
	}
	at := make(map[key]int, len(raw))
	for i, s := range raw {
		at[key{int32(s.ch), s.seq, s.name}] = i
	}
	out := make([]span, len(raw))
	for i, s := range raw {
		parent := -1
		if p := spanParent[s.name]; p >= 0 {
			if j, ok := at[key{int32(s.ch), s.seq, uint8(p)}]; ok {
				parent = j
			}
		}
		out[i] = span{Name: spanNames[s.name], Channel: int(s.ch), Seq: int(s.seq), StartNs: s.start, EndNs: s.end, Parent: parent}
	}
	return out
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval its child spans cover. Children of one parent run
// one after another here, so their clipped durations add up.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if covered := min(s.EndNs, p.EndNs) - max(s.StartNs, p.StartNs); covered > 0 {
			self[s.Parent] -= covered
		}
	}
	return self
}

// medianSelfUs is the median self time of every span name, in µs.
func medianSelfUs(spans []span) map[string]float64 {
	self := selfTimes(spans)
	by := map[string][]float64{}
	for i, s := range spans {
		by[s.Name] = append(by[s.Name], float64(self[i])/1e3)
	}
	out := map[string]float64{}
	for name, v := range by {
		out[name] = median(v)
	}
	return out
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedDetector spans the detector calls the shard worker makes. It
// forwards both entry points the pool uses, so scoring takes the same path
// as in the daemon.
type tracedDetector struct {
	det *aovlis.Detector
	rec *recorder
	ch  int
}

func (t *tracedDetector) Observe(a, b []float64) (aovlis.Result, error) {
	start := t.rec.begin()
	res, err := t.det.Observe(a, b)
	t.rec.end(spObserve, t.ch, start)
	return res, err
}

func (t *tracedDetector) ObserveBatch(a, b [][]float64, results []aovlis.Result) (int, error) {
	start := t.rec.begin()
	n, err := t.det.ObserveBatch(a, b, results)
	t.rec.end(spObserve, t.ch, start)
	return n, err
}

// tracedJournal spans the write-ahead append inside the pool's submit.
type tracedJournal struct {
	j     serve.Journal
	rec   *recorder
	index map[string]int
}

func (t tracedJournal) Append(channel string, seq uint64, action, audience []float64) error {
	start := t.rec.begin()
	err := t.j.Append(channel, seq, action, audience)
	t.rec.end(spWAL, t.index[channel], start)
	return err
}

// tracedSink spans one verdict sink on the shard worker.
type tracedSink struct {
	sink  serve.VerdictSink
	name  int
	rec   *recorder
	index map[string]int
}

func (t tracedSink) Record(channel string, channelSeq uint64, res aovlis.Result) {
	start := t.rec.begin()
	t.sink.Record(channel, channelSeq, res)
	t.rec.end(t.name, t.index[channel], start)
}
