// Package serve turns the single-stream aovlis library into a concurrent
// multi-channel detection service: a DetectorPool owns N independent
// channels (one trained detector per channel), shards them across a fixed
// set of worker goroutines, and exposes a thread-safe ingest API with
// bounded queues and an explicit backpressure policy.
//
// The design honours the Detector's single-writer contract (see the
// aovlis package documentation) by goroutine confinement: every channel is
// bound to exactly one shard, and only that shard's worker ever calls
// ObserveBatch on the channel's detector. Callers may therefore submit
// observations for any channel from any number of goroutines; ordering is
// preserved per caller per channel because submission order into the
// shard's FIFO queue is execution order.
//
// Each shard worker micro-batches: it drains up to Config.Batch pending
// observations per wake-up, groups them by channel (preserving per-channel
// order), and scores each channel's run through Detector.ObserveBatch — one
// batched inference pass instead of per-segment GEMVs, bit-identical to
// serial scoring (see ARCHITECTURE.md §8 and §16). Batching changes
// throughput, never results.
//
// The submit path is deliberately lock-free on shared state: the channel
// table is a copy-on-write map behind an atomic pointer (readers never
// take a lock that writers hold), and queue sends are guarded by a
// per-shard gate instead of a pool-global mutex, so producers for
// different shards never contend on one cache line. A pool-global RWMutex
// here — the previous design — serialises all producers on the lock word
// and is exactly the kind of hidden scalar that keeps shard counts from
// translating into throughput on multicore hosts.
//
// The pool is the seam every future scaling layer plugs into: cmd/aovlisd
// fronts it with HTTP+NDJSON and live WebSocket ingest,
// examples/livestream drives concurrent channels through it over the live
// plane, and the pool benchmark in the root package measures
// segments/sec against shard count and batch cap.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aovlis"
	"aovlis/internal/ados"
	"aovlis/internal/wire"
)

// Detector is the per-channel scoring interface, and ObserveBatch is the
// only call a shard worker makes: it scores one channel's run of pending
// segments. The contract is aovlis.Detector.ObserveBatch's: n segments
// processed, results[0:n] valid, err (if any) belongs to segment n and later
// segments are untouched — the worker resubmits them. A served channel is
// an *aovlis.Detector, and the pool reads its dims, lifetime and tier
// counters and its snapshot from that type alone; any other Detector (a
// test fake, a tracing wrapper) is a bare scorer: it scores, and has no
// dims check, restored counters or checkpoint. The pool confines each
// Detector to a single shard worker, so implementations need not be safe
// for concurrent use.
type Detector interface {
	ObserveBatch(actionFeats, audienceFeats [][]float64, results []aovlis.Result) (int, error)
}

// OverflowPolicy and its one value Block are kept because cmd/aovlis-bench
// names them in its Config literal. A full shard queue always waits;
// admission control is the pool's only overload refusal.
type OverflowPolicy int

// Block is the only OverflowPolicy: a submit waits for queue space, so a
// slow shard slows its producers down.
const Block OverflowPolicy = 0

// Config parameterises a DetectorPool.
type Config struct {
	// Shards is the number of worker goroutines (and ingest queues).
	// Channels are assigned to shards by a stable hash of their id.
	Shards int
	// QueueDepth is the capacity of each shard's ingest queue.
	QueueDepth int
	// Policy is kept because cmd/aovlis-bench sets it; no code reads it.
	// A full queue always waits.
	Policy OverflowPolicy
	// Batch is the micro-batching drain cap: a shard worker takes up to
	// Batch pending observations per wake-up and scores each channel's
	// run in one batched inference pass. 0 and 1 both mean strictly one
	// observation per wake-up. Batching is semantically transparent —
	// scores are bit-identical whatever the cap.
	Batch int
	// Admission configures watermark-based overload control: reject new
	// submissions (ErrRejected) when queues back up, before any queue
	// fills, and admit again with hysteresis. The zero value disables it,
	// and then a full queue only ever waits.
	Admission AdmissionConfig
}

// DefaultConfig returns a small general-purpose pool configuration.
func DefaultConfig() Config {
	return Config{Shards: 4, QueueDepth: 256, Batch: 16}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.Shards <= 0 {
		return fmt.Errorf("serve: Shards must be positive, got %d", c.Shards)
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("serve: QueueDepth must be positive, got %d", c.QueueDepth)
	}
	if c.Batch < 0 {
		return fmt.Errorf("serve: Batch must be non-negative, got %d", c.Batch)
	}
	return nil
}

// Errors returned by the pool's ingest API.
var (
	// ErrClosed is returned by operations on a closed pool.
	ErrClosed = errors.New("serve: pool is closed")
	// ErrRejected is admission control's refusal in the reject state, the
	// pool's only overload refusal: nothing was journaled or queued, and
	// the caller should back off and resend (the daemon maps it to HTTP
	// 429 + Retry-After).
	ErrRejected = errors.New("serve: pool overloaded, admission reject")
	// ErrUnknownChannel is returned for ids with no attached channel.
	ErrUnknownChannel = errors.New("serve: unknown channel")
	// ErrChannelExists is returned by Attach for duplicate ids.
	ErrChannelExists = errors.New("serve: channel already attached")
)

// Outcome is the asynchronous result of one submitted observation.
type Outcome struct {
	// Result is the detector's verdict (zero when Err is set).
	Result aovlis.Result
	// Err is the detector error, if any.
	Err error
	// Seq is the observation's sequence on its channel: the pool numbers
	// every accepted observation 1, 2, … per channel, and a journal records
	// it under the same number. The daemon publishes it on the decision
	// wire (wseq), so the cluster router can bound failover replay at the
	// last relayed sequence.
	Seq uint64
}

// Journal is the accept-path write-ahead hook (ISSUE 9): when attached,
// submit calls Append — which must make the observation durable before
// returning — ahead of the shard-queue send, so an acknowledged decision
// always implies a journaled observation. *wal.Log implements it.
//
// The converse does not hold: a record journaled immediately before a
// crash or a pool close may never have been applied.
// Boot replay therefore re-applies the journal tail with at-least-once
// semantics — exactly-once for everything acknowledged.
//
// The sequence is the channel's one numbering (Outcome.Seq), which the pool
// assigns with or without a journal. The pool serialises {sequence
// assignment, Append, queue send} per channel (submit's seqMu), so Append
// is called in strictly increasing sequence order for any one channel; concurrent Appends for different
// channels may still interleave (which is what lets *wal.Log group-commit
// their fsyncs).
//
// Detach journals the channel's end the same way: an Append with both
// vectors empty, as the channel's next sequence — a tombstone. Replay
// detaches at it, and a channel attached under the same id later continues
// the numbering above it, so (channel, seq) names one record for as long as
// the journal holds it.
type Journal interface {
	Append(channel string, seq uint64, action, audience []float64) error
}

// VerdictSink receives every non-warmup, error-free verdict as it is
// scored, from the shard workers (implementations must be safe for
// concurrent use — the daemon's sink is the mutex-guarded verdict
// ledger). channelSeq is the observation's sequence on its channel.
type VerdictSink interface {
	Record(channel string, channelSeq uint64, res aovlis.Result)
}

// job is one queued observation bound to its channel, or — when control is
// set — a control action the shard worker runs between observations. Control
// jobs are how the snapshot subsystem quiesces a channel at a segment
// boundary without stopping the shard: the worker executes jobs serially,
// so a control job can never interleave with an ObserveBatch on the same
// shard. Under micro-batching a control job additionally flushes the batch
// drained before it, preserving queue order.
type job struct {
	ch       *channel
	action   []float64
	audience []float64
	out      chan Outcome // buffered(1): the worker's send never blocks
	enq      time.Time    // submission time, for the queue-wait histogram
	seq      uint64       // the observation's sequence on its channel

	control func()
}

// channel is one attached stream with its confined detector and counters.
// All counters are atomics so Stats can be read while the shard works.
type channel struct {
	id    string
	shard *shard
	det   Detector
	aov   *aovlis.Detector // det, unless det is a bare scorer (then nil)

	observed    atomic.Uint64 // successfully scored observations
	warmups     atomic.Uint64 // scored observations still in warm-up
	detected    atomic.Uint64 // anomaly verdicts
	rejected    atomic.Uint64 // submissions refused by admission control
	errors      atomic.Uint64 // detector errors
	tierskipped atomic.Uint64 // delivered tier-skip verdicts, seeded at Attach
	pending     atomic.Int64  // enqueued but not yet executed

	batches atomic.Uint64 // scoring rounds executed
	batched atomic.Uint64 // observations scored across those rounds

	// seq is the channel's sequence counter (last assigned; 1-based,
	// node-local: it restarts when the channel is attached fresh). applied
	// is the highest sequence already scored — what a checkpoint records
	// as the channel's replay floor. That floor is only sound because
	// seqMu serialises {assign seq, journal append, enqueue} for live
	// submissions: enqueue order equals sequence order per channel, so
	// applied = N implies every observation ≤ N was applied and a
	// checkpoint can never cover a journaled-but-unapplied record.
	seqMu   sync.Mutex
	seq     atomic.Uint64
	applied atomic.Uint64
	// tombstoned (guarded by seqMu) is set once Detach has journaled the
	// channel's tombstone: a submitter that resolved the channel before it
	// left the table must not journal a record behind it.
	tombstoned bool

	// actionDim/audienceDim are aov's feature dims, cached at Attach (0 for
	// a bare scorer). The journaling accept path refuses mis-dimensioned
	// observations before they reach the journal: a record that can only
	// ever score as an error must not enter the durable replay history.
	actionDim   int
	audienceDim int
}

// shard is one worker goroutine and its ingest queue. The gate makes
// queue sends safe against Close without any pool-global lock: senders
// hold the read side across the send; Close write-locks, marks the shard
// closed and closes the queue. Contention is per shard, so producers for
// different shards scale independently.
type shard struct {
	index int
	queue chan job

	gate   sync.RWMutex
	closed bool
}

// send enqueues j, waiting while the queue is full. It reports ErrClosed
// after Close won the gate.
func (s *shard) send(j job) error {
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.queue <- j
	return nil
}

// ChannelStats is a point-in-time snapshot of one channel's counters.
type ChannelStats struct {
	// Channel is the channel id; Shard is the owning shard index.
	Channel string `json:"channel"`
	Shard   int    `json:"shard"`
	// Observed counts successfully scored observations, of which Warmups
	// were still inside the q-segment warm-up window.
	Observed uint64 `json:"observed"`
	Warmups  uint64 `json:"warmups"`
	// Detected counts anomaly verdicts.
	Detected uint64 `json:"detected"`
	// TierSkipped counts delivered tier-skip verdicts: segments the tier
	// gate cleared without running the LSTM predict at all. A restored
	// channel starts from its detector's TierStats().Skipped; zero for
	// untiered detectors.
	TierSkipped uint64 `json:"tier_skipped,omitempty"`
	// Rejected counts submissions refused by admission control in the
	// reject state (they were never accepted, so nothing was lost).
	Rejected uint64 `json:"rejected,omitempty"`
	// Errors counts detector failures.
	Errors uint64 `json:"errors"`
	// QueueDepth is the number of this channel's observations enqueued but
	// not yet executed.
	QueueDepth int64 `json:"queue_depth"`
	// Batches counts the scoring rounds the shard worker ran for this
	// channel, and Batched the observations scored across them;
	// BatchOccupancy is their ratio — the mean number of segments amortised
	// per inference round. 1.0 means the worker never found a backlog to
	// batch (always, at Batch ≤ 1).
	Batches        uint64  `json:"batches,omitempty"`
	Batched        uint64  `json:"batched,omitempty"`
	BatchOccupancy float64 `json:"batch_occupancy,omitempty"`
}

// WriteJSON writes cs as encoding/json writes it.
func (cs ChannelStats) WriteJSON(j *wire.JSON) {
	j.Object()
	j.Key("channel").String(cs.Channel)
	j.Key("shard").Int(int64(cs.Shard))
	j.Key("observed").Uint(cs.Observed)
	j.Key("warmups").Uint(cs.Warmups)
	j.Key("detected").Uint(cs.Detected)
	if cs.TierSkipped != 0 {
		j.Key("tier_skipped").Uint(cs.TierSkipped)
	}
	if cs.Rejected != 0 {
		j.Key("rejected").Uint(cs.Rejected)
	}
	j.Key("errors").Uint(cs.Errors)
	j.Key("queue_depth").Int(cs.QueueDepth)
	writeBatching(j, cs.Batches, cs.Batched, cs.BatchOccupancy)
	j.EndObject()
}

// writeBatching writes the three omitempty micro-batching counters.
func writeBatching(j *wire.JSON, batches, batched uint64, occupancy float64) {
	if batches != 0 {
		j.Key("batches").Uint(batches)
	}
	if batched != 0 {
		j.Key("batched").Uint(batched)
	}
	if occupancy != 0 {
		j.Key("batch_occupancy").Float(occupancy)
	}
}

// PoolStats aggregates the pool.
type PoolStats struct {
	// Channels is the number of attached channels; Shards echoes the
	// configuration.
	Channels int `json:"channels"`
	Shards   int `json:"shards"`
	// Observed/Detected/Rejected/Errors are sums over all channels.
	Observed uint64 `json:"observed"`
	Detected uint64 `json:"detected"`
	Rejected uint64 `json:"rejected"`
	Errors   uint64 `json:"errors"`
	// AdmissionState is the pool's overload-control state ("normal" or
	// "reject").
	AdmissionState string `json:"admission_state"`
	// TierSkipped sums the channels' tier-gate skip counters.
	TierSkipped uint64 `json:"tier_skipped,omitempty"`
	// Batches/Batched sum the channels' micro-batching counters;
	// BatchOccupancy is the pool-wide mean batch size.
	Batches        uint64  `json:"batches,omitempty"`
	Batched        uint64  `json:"batched,omitempty"`
	BatchOccupancy float64 `json:"batch_occupancy,omitempty"`
	// QueueDepths is the current length of each shard's ingest queue.
	QueueDepths []int `json:"queue_depths"`
}

// WriteJSON writes ps as encoding/json writes it.
func (ps PoolStats) WriteJSON(j *wire.JSON) {
	j.Object()
	j.Key("channels").Int(int64(ps.Channels))
	j.Key("shards").Int(int64(ps.Shards))
	j.Key("observed").Uint(ps.Observed)
	j.Key("detected").Uint(ps.Detected)
	j.Key("rejected").Uint(ps.Rejected)
	j.Key("errors").Uint(ps.Errors)
	j.Key("admission_state").String(ps.AdmissionState)
	if ps.TierSkipped != 0 {
		j.Key("tier_skipped").Uint(ps.TierSkipped)
	}
	writeBatching(j, ps.Batches, ps.Batched, ps.BatchOccupancy)
	j.Key("queue_depths")
	if ps.QueueDepths == nil {
		j.Null()
	} else {
		j.Array()
		for _, d := range ps.QueueDepths {
			j.Int(int64(d))
		}
		j.EndArray()
	}
	j.EndObject()
}

// DetectorPool is a sharded multi-channel detection service. All methods
// are safe for concurrent use.
type DetectorPool struct {
	cfg    Config
	shards []*shard
	adm    *admission
	m      *poolMetrics
	wg     sync.WaitGroup

	// chans is the copy-on-write channel table: the submit path loads it
	// with one atomic read and never blocks on writers. Attach/Detach
	// build a fresh map under mu and publish it atomically.
	chans atomic.Pointer[map[string]*channel]

	// journal and sink are the durability hooks: both nil by default and
	// set once on the boot path (AttachJournal / AttachVerdictSink)
	// before concurrent traffic starts — the wiring order is restore,
	// attach sink, replay, attach journal, serve.
	journal Journal
	sink    VerdictSink

	mu     sync.Mutex // guards channel-table mutation, retired and closed
	closed bool
	// retired maps a detached id to its tombstone's sequence while the
	// journal may still hold its records: Attach continues the numbering
	// from it, and a checkpoint counts the id's records covered up to it
	// (Report.Floors). One small entry per id detached since boot; boot
	// re-derives it from the journal (AttachJournal).
	retired map[string]uint64
}

// NewDetectorPool starts the shard workers and returns an empty pool.
// Close must be called to release them.
func NewDetectorPool(cfg Config) (*DetectorPool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &DetectorPool{cfg: cfg, retired: make(map[string]uint64)}
	empty := make(map[string]*channel)
	p.chans.Store(&empty)
	for i := 0; i < cfg.Shards; i++ {
		s := &shard{index: i, queue: make(chan job, cfg.QueueDepth)}
		p.shards = append(p.shards, s)
	}
	p.adm = newAdmission(cfg.Admission, cfg.QueueDepth)
	p.m = newPoolMetrics(p)
	for _, s := range p.shards {
		p.wg.Add(1)
		go p.runShard(s)
	}
	return p, nil
}

// batch is one number with two uses: the most jobs a shard worker drains
// per wake-up, and the most submissions a Pump keeps in flight — so a
// stream's backlog is what one scoring round can take. 0 means 1.
func (p *DetectorPool) batch() int { return max(p.cfg.Batch, 1) }

// runShard executes the channel-confined detection loop of one shard: it
// alone calls ObserveBatch on the detectors of the channels hashed to it,
// which is what makes the single-writer Detector safe under a concurrent
// pool. Each wake-up drains a run of pending jobs — whatever is already
// queued, up to the Batch cap (0 and 1 both mean one job) — and scores
// per-channel groups in one batched call each.
func (p *DetectorPool) runShard(s *shard) {
	defer p.wg.Done()
	limit := p.batch()
	jobs := make([]job, 0, limit)
	// Sized for a full drain before traffic, so no group grows it.
	scratch := batchScratch{results: make([]aovlis.Result, limit), jobIdx: make([]int, 0, limit)}
	scratch.acts, scratch.auds = make([][]float64, 0, limit), make([][]float64, 0, limit)
	for j := range s.queue {
		if j.control != nil {
			j.control()
			continue
		}
		jobs = append(jobs[:0], j)
		// Drain without blocking. A control job ends the drain so it still
		// runs at a segment boundary in queue order.
		var control func()
	drain:
		for len(jobs) < limit {
			select {
			case j2, ok := <-s.queue:
				if !ok {
					break drain
				}
				if j2.control != nil {
					control = j2.control
					break drain
				}
				jobs = append(jobs, j2)
			default:
				break drain
			}
		}
		p.runBatch(jobs, &scratch)
		if control != nil {
			control()
		}
		p.adm.relax(p.maxQueueDepth())
	}
}

// batchScratch is a shard worker's reusable micro-batching state.
type batchScratch struct {
	acts    [][]float64
	auds    [][]float64
	jobIdx  []int
	results []aovlis.Result
}

// runBatch groups the drained jobs by channel (first-seen order, original
// order within each channel) and scores each group in one ObserveBatch
// call. Outcomes are delivered per job; batching is invisible to callers.
func (p *DetectorPool) runBatch(jobs []job, sc *batchScratch) {
	for i := range jobs {
		jobs[i].ch.pending.Add(-1)
		p.m.queueWait.Observe(time.Since(jobs[i].enq).Seconds())
	}
	for i := range jobs {
		ch := jobs[i].ch
		if ch == nil { // already scored as part of an earlier group
			continue
		}
		sc.acts, sc.auds, sc.jobIdx = sc.acts[:0], sc.auds[:0], sc.jobIdx[:0]
		for k := i; k < len(jobs); k++ {
			if jobs[k].ch == ch {
				sc.acts = append(sc.acts, jobs[k].action)
				sc.auds = append(sc.auds, jobs[k].audience)
				sc.jobIdx = append(sc.jobIdx, k)
				jobs[k].ch = nil
			}
		}
		p.runGroup(ch, jobs, sc)
	}
	// Drop caller feature references from the reused scratch.
	clear(sc.acts)
	clear(sc.auds)
}

// runGroup scores one channel's run of segments through ObserveBatch,
// resubmitting the tail after a failed segment so each segment fails or
// succeeds individually.
func (p *DetectorPool) runGroup(ch *channel, jobs []job, sc *batchScratch) {
	total := len(sc.jobIdx)
	if cap(sc.results) < total {
		sc.results = make([]aovlis.Result, total)
	}
	done := 0
	for done < total {
		results := sc.results[:total-done]
		t0 := time.Now()
		n, err := ch.det.ObserveBatch(sc.acts[done:], sc.auds[done:], results)
		p.m.scoreLatency.Observe(time.Since(t0).Seconds())
		if n > 0 {
			p.m.occupancy.Observe(float64(n))
		}
		ch.batches.Add(1)
		ch.batched.Add(uint64(n))
		for x := 0; x < n; x++ {
			p.finishJob(ch, &jobs[sc.jobIdx[done+x]], results[x], nil)
		}
		done += n
		if err == nil {
			return
		}
		if done < total {
			p.finishJob(ch, &jobs[sc.jobIdx[done]], aovlis.Result{}, err)
			done++
		}
	}
}

// tierSkip is the Path of a verdict the tier gate cleared without the LSTM.
var tierSkip = ados.PathTierSkip.String()

// finishJob updates the channel counters for one scored observation and
// delivers its outcome. The counters are tallied from the verdicts alone:
// the detector's own counters are read once, when Attach seeds them.
func (p *DetectorPool) finishJob(ch *channel, j *job, res aovlis.Result, err error) {
	switch {
	case err != nil:
		ch.errors.Add(1)
		p.m.errors.Inc()
	case res.Warmup:
		ch.observed.Add(1)
		ch.warmups.Add(1)
		p.m.observed.Inc()
	default:
		ch.observed.Add(1)
		p.m.observed.Inc()
		if res.Anomaly {
			ch.detected.Add(1)
			p.m.anomalies.Inc()
		}
		if res.Path == tierSkip {
			ch.tierskipped.Add(1)
		}
	}
	// CAS-max. On the live path submit's seqMu makes same-channel enqueues
	// arrive in sequence order, so this max is a true floor (applied = N
	// means everything ≤ N was applied); the CAS keeps it monotonic against
	// AttachJournal seeding and replay regardless.
	for {
		cur := ch.applied.Load()
		if j.seq <= cur || ch.applied.CompareAndSwap(cur, j.seq) {
			break
		}
	}
	if err == nil && !res.Warmup && p.sink != nil {
		p.sink.Record(ch.id, j.seq, res)
	}
	j.out <- Outcome{Result: res, Err: err, Seq: j.seq}
}

// shardFor hashes a channel id onto a shard.
func (p *DetectorPool) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	// The modulus is taken unsigned: int(h.Sum32()) is negative for half of
	// all ids where int is 32 bits.
	return p.shards[h.Sum32()%uint32(len(p.shards))]
}

// lookup resolves a channel id through the copy-on-write table.
func (p *DetectorPool) lookup(id string) (*channel, bool) {
	ch, ok := (*p.chans.Load())[id]
	return ch, ok
}

// publish installs a mutated copy of the channel table. Callers hold p.mu.
func (p *DetectorPool) publish(mutate func(map[string]*channel)) {
	old := *p.chans.Load()
	next := make(map[string]*channel, len(old)+1)
	for id, ch := range old {
		next[id] = ch
	}
	mutate(next)
	p.chans.Store(&next)
}

// Attach registers a channel under id, transferring ownership of det to
// the pool: from now on only the channel's shard worker calls ObserveBatch
// on it. Attaching an existing id fails with ErrChannelExists.
func (p *DetectorPool) Attach(id string, det Detector) error {
	if id == "" {
		return fmt.Errorf("serve: empty channel id")
	}
	if det == nil {
		return fmt.Errorf("serve: nil detector for channel %q", id)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if _, ok := p.lookup(id); ok {
		return fmt.Errorf("%w: %q", ErrChannelExists, id)
	}
	ch := &channel{id: id, shard: p.shardFor(id), det: det}
	// A restored channel reports whole-stream statistics, not just the
	// post-restore leg. Transport-local counters (warmups, rejections,
	// queue errors) belong to the pool instance and restart at zero.
	if ch.aov, _ = det.(*aovlis.Detector); ch.aov != nil {
		ch.actionDim, ch.audienceDim = ch.aov.Dims()
		ch.observed.Store(uint64(ch.aov.Observed()))
		ch.detected.Store(uint64(ch.aov.Detected()))
		ch.tierskipped.Store(uint64(ch.aov.TierStats().Skipped))
		// Every shard may score a full drain of this configuration at once.
		ch.aov.ReserveLanes(p.cfg.Shards, p.batch())
	}
	if seq, ok := p.retired[id]; ok {
		// A new incarnation of a detached id: number on from its tombstone,
		// and start its checkpoint floor there too, so a replay skips the
		// dead incarnation's records instead of applying them to this one.
		ch.seq.Store(seq)
		ch.applied.Store(seq)
		delete(p.retired, id)
	}
	p.publish(func(m map[string]*channel) { m[id] = ch })
	return nil
}

// Detach removes the channel. Observations already queued still execute;
// new submissions fail with ErrUnknownChannel. On a journaled pool the
// detach is durable first: a tombstone is appended as the channel's next
// sequence, so a restart does not replay the channel back into existence,
// and a failed append leaves the channel attached.
func (p *DetectorPool) Detach(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	ch, ok := p.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownChannel, id)
	}
	if p.journal != nil {
		ch.seqMu.Lock()
		seq, err := p.journalNext(ch, nil, nil)
		ch.tombstoned = err == nil
		ch.seqMu.Unlock()
		if err != nil {
			return fmt.Errorf("serve: journaling detach of channel %q: %w", id, err)
		}
		p.retired[id] = seq
	}
	p.publish(func(m map[string]*channel) { delete(m, id) })
	return nil
}

// Channels returns the attached channel ids, sorted.
func (p *DetectorPool) Channels() []string {
	m := *p.chans.Load()
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of attached channels.
func (p *DetectorPool) Len() int { return len(*p.chans.Load()) }

// SubmitInto enqueues one observation for the channel and delivers its one
// Outcome on out, a caller-owned channel, so high-rate async producers can
// recycle channels instead of allocating one per segment. out must be
// buffered with capacity ≥ 1 and fully drained before reuse. A full queue
// makes SubmitInto wait for space; only admission control refuses
// (ErrRejected), and it does so before anything is journaled. The feature
// vectors must stay unchanged until the Outcome is delivered; from then on
// they are the caller's to overwrite (an *aovlis.Detector keeps copies of
// what it needs).
func (p *DetectorPool) SubmitInto(id string, actionFeat, audienceFeat []float64, out chan Outcome) error {
	if cap(out) < 1 {
		return fmt.Errorf("serve: SubmitInto outcome channel must be buffered (cap ≥ 1)")
	}
	return p.submit(id, actionFeat, audienceFeat, out, 0)
}

// submit is the one enqueue path behind SubmitInto, Observe and
// ReplayObserve; out is buffered. It is lock-free on pool-global state:
// one atomic map load, then the per-shard send gate. Live submissions
// additionally serialise on their channel's seqMu (different channels stay
// independent).
//
// replaySeq is 0 for live traffic, which takes the channel's next
// sequence; the boot replay path passes the record's original journal
// sequence instead, which suppresses re-journaling while keeping the
// applied floor and ledger entries aligned with the original run.
func (p *DetectorPool) submit(id string, actionFeat, audienceFeat []float64, out chan Outcome, replaySeq uint64) error {
	ch, ok := p.lookup(id)
	if !ok {
		if p.isClosed() {
			return ErrClosed
		}
		return fmt.Errorf("%w: %q", ErrUnknownChannel, id)
	}
	// Admission control gates the front door: in the reject state the
	// submission is refused before it ever occupies queue space, so
	// nothing accepted is ever discarded. The check is one queue-length
	// read and an atomic load on the no-overload path.
	if p.adm.admit(len(ch.shard.queue)) == AdmitReject {
		ch.rejected.Add(1)
		p.m.rejected.Inc()
		return fmt.Errorf("%w (channel %q, shard %d)", ErrRejected, id, ch.shard.index)
	}
	// A mis-dimensioned observation can only ever score as a detector
	// error; a journaling pool refuses it here so it never enters the
	// durable replay history (a journaled record must replay cleanly
	// through Observe at the next boot). One with no features at all is
	// refused whatever the detector: in the journal that shape is a
	// channel's tombstone.
	if replaySeq == 0 && p.journal != nil && (len(actionFeat)+len(audienceFeat) == 0 ||
		ch.actionDim > 0 && (len(actionFeat) != ch.actionDim || len(audienceFeat) != ch.audienceDim)) {
		ch.errors.Add(1)
		p.m.errors.Inc()
		return fmt.Errorf("serve: channel %q: feature dims %d/%d, want %d/%d",
			id, len(actionFeat), len(audienceFeat), ch.actionDim, ch.audienceDim)
	}
	j := job{ch: ch, action: actionFeat, audience: audienceFeat, out: out, enq: time.Now(), seq: replaySeq}
	if replaySeq == 0 {
		// seqMu holds {assign seq, append, enqueue} together per channel:
		// without it two submitters could enqueue out of sequence order,
		// and the CAS-max applied floor could cover an unapplied sequence.
		// With a journal that is silent loss after a kill -9 — a checkpoint
		// in that window would let Truncate delete an acknowledged
		// observation that was never applied. Same-channel submitters pay
		// the serialisation; cross-channel submitters still interleave
		// inside the journal's group commit.
		ch.seqMu.Lock()
		defer ch.seqMu.Unlock()
		if ch.tombstoned {
			return fmt.Errorf("%w: %q", ErrUnknownChannel, id)
		}
		var err error
		if j.seq, err = p.journalNext(ch, actionFeat, audienceFeat); err != nil {
			ch.errors.Add(1)
			p.m.errors.Inc()
			return fmt.Errorf("serve: journal append (channel %q): %w", id, err)
		}
	}
	// The gauge is raised before the send so the worker's decrement can
	// never observe it at zero.
	ch.pending.Add(1)
	if err := ch.shard.send(j); err != nil {
		ch.pending.Add(-1)
		return err
	}
	p.m.accepted.Inc()
	return nil
}

// journalNext assigns ch's next sequence and, on a journaling pool, appends
// the record under it — durability before acknowledgement: the append
// (which fsyncs before returning) happens ahead of the queue send, so no
// outcome, and no decision line, can exist for an unjournaled observation.
// The inverse window is accepted: a record journaled here may still miss
// its enqueue (a pool close), and boot replay will apply it once — the
// at-least-once edge of the contract. A full queue is not such a window:
// the send waits, so a journaled record is always scored. A failed append
// un-assigns the burned sequence, so a rejected record leaves no gap in the
// journal numbering (cluster failover treats a gap as a degraded channel).
// Callers hold ch.seqMu, which is what makes the un-assign safe.
func (p *DetectorPool) journalNext(ch *channel, action, audience []float64) (uint64, error) {
	seq := ch.seq.Add(1)
	if p.journal == nil {
		return seq, nil
	}
	if err := p.journal.Append(ch.id, seq, action, audience); err != nil {
		ch.seq.Add(^uint64(0))
		return 0, err
	}
	return seq, nil
}

// isClosed reports the pool's closed flag.
func (p *DetectorPool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Observe submits one observation and waits for its verdict — the
// synchronous form of SubmitInto.
func (p *DetectorPool) Observe(id string, actionFeat, audienceFeat []float64) (aovlis.Result, error) {
	return p.observeSync(id, actionFeat, audienceFeat, 0)
}

// ReplayObserve scores one journaled observation synchronously without
// re-journaling it, carrying its original sequence so the applied floor
// and any verdict-sink entries line up with the original run. It is the
// boot path's replay primitive, called after the snapshot restore and
// before AttachJournal.
func (p *DetectorPool) ReplayObserve(id string, seq uint64, actionFeat, audienceFeat []float64) (aovlis.Result, error) {
	if seq == 0 {
		return aovlis.Result{}, fmt.Errorf("serve: ReplayObserve requires a journal sequence")
	}
	return p.observeSync(id, actionFeat, audienceFeat, seq)
}

func (p *DetectorPool) observeSync(id string, actionFeat, audienceFeat []float64, replaySeq uint64) (aovlis.Result, error) {
	out := make(chan Outcome, 1)
	if err := p.submit(id, actionFeat, audienceFeat, out, replaySeq); err != nil {
		return aovlis.Result{}, err
	}
	o := <-out
	return o.Result, o.Err
}

// AttachJournal sets the pool's write-ahead journal and seeds the
// per-channel sequence counters: seed maps channel id to the highest
// sequence already journaled or checkpointed for it, so newly assigned
// sequences continue after the recovered history instead of colliding
// with it. A seeded id with no channel is one the replay left detached
// (its last record is a tombstone): it is remembered as retired. It must
// be called on the boot path, before concurrent submissions start (the
// node's order: restore snapshot, attach sink, replay journal, attach
// journal, serve).
func (p *DetectorPool) AttachJournal(j Journal, seed map[string]uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.journal = j
	for id, seq := range seed {
		ch, ok := p.lookup(id)
		if !ok {
			p.retired[id] = seq
			continue
		}
		if seq > ch.seq.Load() {
			ch.seq.Store(seq)
		}
		if seq > ch.applied.Load() {
			ch.applied.Store(seq)
		}
	}
}

// AttachVerdictSink sets the pool's verdict sink. Like AttachJournal it
// belongs to the boot path: attach it before traffic (and before replay,
// so replayed verdicts are recorded too).
func (p *DetectorPool) AttachVerdictSink(s VerdictSink) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sink = s
}

// WithChannel runs fn against id's detector at a segment boundary: fn
// executes inside the channel's shard worker, so no ObserveBatch on that shard
// is concurrent with it and the detector's state is between segments.
// fn gets nil when the channel is a bare scorer. This is the
// continual-learning seam — a node's absorb loop merges a live channel's
// weights into the node's template through it without stopping the
// stream. fn must not call back into the pool (it would deadlock on its
// own shard) and should be brief: the whole shard is held while it runs.
func (p *DetectorPool) WithChannel(id string, fn func(det *aovlis.Detector) error) error {
	ch, ok := p.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownChannel, id)
	}
	var fnErr error
	if err := p.quiesce(ch, func() { fnErr = fn(ch.aov) }); err != nil {
		return err
	}
	return fnErr
}

// AppliedSeq reports the channel's applied floor: the highest sequence
// scored, at or below which every observation was scored (0 for unknown
// channels).
func (p *DetectorPool) AppliedSeq(id string) uint64 {
	ch, ok := p.lookup(id)
	if !ok {
		return 0
	}
	return ch.applied.Load()
}

// Stats snapshots one channel's counters.
func (p *DetectorPool) Stats(id string) (ChannelStats, error) {
	ch, ok := p.lookup(id)
	if !ok {
		return ChannelStats{}, fmt.Errorf("%w: %q", ErrUnknownChannel, id)
	}
	return ch.snapshot(), nil
}

// snapshot reads the channel counters atomically (each counter individually;
// the set is eventually consistent while the shard works).
func (c *channel) snapshot() ChannelStats {
	st := ChannelStats{
		Channel:     c.id,
		Shard:       c.shard.index,
		Observed:    c.observed.Load(),
		Warmups:     c.warmups.Load(),
		Detected:    c.detected.Load(),
		TierSkipped: c.tierskipped.Load(),
		Rejected:    c.rejected.Load(),
		Errors:      c.errors.Load(),
		QueueDepth:  c.pending.Load(),
		Batches:     c.batches.Load(),
		Batched:     c.batched.Load(),
	}
	if st.Batches > 0 {
		st.BatchOccupancy = float64(st.Batched) / float64(st.Batches)
	}
	return st
}

// AllStats snapshots every channel, sorted by id.
func (p *DetectorPool) AllStats() []ChannelStats {
	m := *p.chans.Load()
	out := make([]ChannelStats, 0, len(m))
	for _, ch := range m {
		out = append(out, ch.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Channel < out[j].Channel })
	return out
}

// PoolStats aggregates all channels plus the live shard queue lengths.
func (p *DetectorPool) PoolStats() PoolStats {
	st := PoolStats{Shards: p.cfg.Shards, QueueDepths: make([]int, len(p.shards)),
		AdmissionState: p.adm.current().String()}
	for i, s := range p.shards {
		st.QueueDepths[i] = len(s.queue)
	}
	for _, cs := range p.AllStats() {
		st.Channels++
		st.Observed += cs.Observed
		st.Detected += cs.Detected
		st.Rejected += cs.Rejected
		st.Errors += cs.Errors
		st.TierSkipped += cs.TierSkipped
		st.Batches += cs.Batches
		st.Batched += cs.Batched
	}
	if st.Batches > 0 {
		st.BatchOccupancy = float64(st.Batched) / float64(st.Batches)
	}
	return st
}

// Close stops accepting observations, drains every shard queue (queued
// observations still execute and deliver their outcomes) and waits for the
// workers to exit. Close is idempotent; later calls return ErrClosed.
func (p *DetectorPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.closed = true
	p.mu.Unlock()
	// Win each shard's gate: no sender can be mid-send once the write lock
	// is held, so closing the queue is safe; late senders observe closed.
	for _, s := range p.shards {
		s.gate.Lock()
		s.closed = true
		close(s.queue)
		s.gate.Unlock()
	}
	p.wg.Wait()
	return nil
}
