// Package serve turns the single-stream aovlis library into a concurrent
// multi-channel detection service: a DetectorPool owns N independent
// channels (one trained detector per channel), shards them across a fixed
// set of worker goroutines, and exposes a thread-safe ingest API with
// bounded queues and an explicit backpressure policy.
//
// The design honours the Detector's single-writer contract (see the
// aovlis package documentation) by goroutine confinement: every channel is
// pinned to exactly one shard, and only that shard's worker ever calls
// Observe on the channel's detector. Callers may therefore submit
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

// Detector is the per-channel scoring interface. *aovlis.Detector
// implements it; tests and alternative backends may substitute their own.
// The pool confines each Detector to a single shard worker, so
// implementations need not be safe for concurrent use.
type Detector interface {
	Observe(actionFeat, audienceFeat []float64) (aovlis.Result, error)
}

// batchObserver is implemented by detectors that can score a run of
// pending segments in one call (notably *aovlis.Detector). The contract
// mirrors aovlis.Detector.ObserveBatch: n segments processed, results[0:n]
// valid, err (if any) belongs to segment n and later segments are
// untouched — the shard worker resubmits them.
type batchObserver interface {
	ObserveBatch(actionFeats, audienceFeats [][]float64, results []aovlis.Result) (int, error)
}

// laneByLane gives a plain Detector the batch contract, one Observe per
// lane, so the shard worker has a single scoring call.
type laneByLane struct{ Detector }

func (l laneByLane) ObserveBatch(actionFeats, audienceFeats [][]float64, results []aovlis.Result) (int, error) {
	for i := range actionFeats {
		res, err := l.Observe(actionFeats[i], audienceFeats[i])
		if err != nil {
			return i, err
		}
		results[i] = res
	}
	return len(actionFeats), nil
}

// tierStatser is implemented by detectors that expose tiered-scoring gate
// counters (notably *aovlis.Detector with Tiered on).
type tierStatser interface {
	TierStats() ados.TierStats
}

// dimser is implemented by detectors that expose their expected feature
// dimensions (notably *aovlis.Detector). Attach caches them so the
// journaling accept path can reject mis-dimensioned observations up
// front instead of journaling a record the detector will only ever score
// as an error.
type dimser interface {
	Dims() (actionDim, audienceDim int)
}

// lifetimeCounter is implemented by detectors that carry stream-lifetime
// counters across snapshots (notably *aovlis.Detector). Attach seeds the
// channel's observed/detected counters from it, so a channel restored from
// a snapshot reports whole-stream statistics, not just the post-restore
// leg. Transport-local counters (warmups, drops, queue errors) belong to
// the pool instance and restart at zero.
type lifetimeCounter interface {
	Observed() int
	Detected() int
}

// OverflowPolicy selects what Submit does when a shard's ingest queue is
// full.
type OverflowPolicy int

const (
	// Block applies backpressure: Submit waits for queue space. This is
	// the lossless default — a slow shard slows its producers down.
	Block OverflowPolicy = iota
	// DropNewest sheds load: Submit fails fast with ErrOverloaded and the
	// observation is counted as dropped on its channel. Live streams often
	// prefer losing a segment over falling behind real time.
	DropNewest
)

// String names the policy.
func (p OverflowPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case DropNewest:
		return "drop"
	default:
		return fmt.Sprintf("OverflowPolicy(%d)", int(p))
	}
}

// ParsePolicy converts a CLI-style policy name ("block" or "drop").
func ParsePolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop":
		return DropNewest, nil
	default:
		return 0, fmt.Errorf("serve: unknown overflow policy %q (want block or drop)", s)
	}
}

// Config parameterises a DetectorPool.
type Config struct {
	// Shards is the number of worker goroutines (and ingest queues).
	// Channels are assigned to shards by a stable hash of their id.
	Shards int
	// QueueDepth is the capacity of each shard's ingest queue.
	QueueDepth int
	// Policy selects the behaviour when a queue is full.
	Policy OverflowPolicy
	// Batch is the micro-batching drain cap: a shard worker takes up to
	// Batch pending observations per wake-up and scores each channel's
	// run in one batched inference pass. 0 and 1 both mean strictly one
	// observation per wake-up. Batching is semantically transparent —
	// scores are bit-identical whatever the cap.
	Batch int
	// Admission configures watermark-based overload control: reject new
	// submissions (ErrRejected) when queues back up, before any accepted
	// segment is lost, and admit again with hysteresis. The zero value
	// disables it.
	Admission AdmissionConfig
}

// DefaultConfig returns a small general-purpose pool configuration.
func DefaultConfig() Config {
	return Config{Shards: 4, QueueDepth: 256, Policy: Block, Batch: 16}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.Shards <= 0 {
		return fmt.Errorf("serve: Shards must be positive, got %d", c.Shards)
	}
	if c.QueueDepth <= 0 {
		return fmt.Errorf("serve: QueueDepth must be positive, got %d", c.QueueDepth)
	}
	if c.Policy != Block && c.Policy != DropNewest {
		return fmt.Errorf("serve: unknown overflow policy %d", int(c.Policy))
	}
	if c.Batch < 0 {
		return fmt.Errorf("serve: Batch must be non-negative, got %d", c.Batch)
	}
	return c.Admission.Validate()
}

// Errors returned by the pool's ingest API.
var (
	// ErrClosed is returned by operations on a closed pool.
	ErrClosed = errors.New("serve: pool is closed")
	// ErrOverloaded is returned when the observation was not enqueued
	// because the pool is overloaded: as itself under the DropNewest policy
	// when the channel's shard queue is full (the segment is lost), and
	// wrapped in ErrRejected by admission control. Accepted observations
	// are never discarded.
	ErrOverloaded = errors.New("serve: pool overloaded, observation not enqueued")
	// ErrRejected is admission control's refusal in the reject state,
	// whatever the policy: nothing was lost, the caller should back off and
	// resend (the daemon maps it to HTTP 429 + Retry-After). It matches
	// ErrOverloaded under errors.Is.
	ErrRejected = fmt.Errorf("%w: admission reject", ErrOverloaded)
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
	// Seq is the observation's journal sequence on its channel (0 when
	// the pool runs without a journal). The daemon publishes it on the
	// decision wire so the cluster router can bound failover replay at
	// the last relayed sequence.
	Seq uint64
}

// Journal is the accept-path write-ahead hook (ISSUE 9): when attached,
// submit calls Append — which must make the observation durable before
// returning — ahead of the shard-queue send, so an acknowledged decision
// always implies a journaled observation. *wal.Log implements it.
//
// The converse does not hold: a record journaled immediately before a
// crash, a DropNewest shed, or a pool close may never have been applied.
// Boot replay therefore re-applies the journal tail with at-least-once
// semantics — exactly-once for everything acknowledged.
//
// The pool serialises {sequence assignment, Append, queue send} per
// channel (submit's walMu), so Append is called in strictly increasing
// sequence order for any one channel; concurrent Appends for different
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
// ledger). channelSeq is the observation's journal sequence (0 without a
// journal).
type VerdictSink interface {
	Record(channel string, channelSeq uint64, res aovlis.Result)
}

// job is one queued observation bound to its channel, or — when control is
// set — a control action the shard worker runs between observations. Control
// jobs are how the snapshot subsystem quiesces a channel at a segment
// boundary without stopping the shard: the worker executes jobs serially,
// so a control job can never interleave with an Observe on the same shard.
// Under micro-batching a control job additionally flushes the batch drained
// before it, preserving queue order.
type job struct {
	ch       *channel
	action   []float64
	audience []float64
	out      chan Outcome // buffered(1): the worker's send never blocks
	enq      time.Time    // submission time, for the queue-wait histogram
	seq      uint64       // journal sequence (0 without a journal)

	control func()
}

// channel is one attached stream with its confined detector and counters.
// All counters are atomics so Stats can be read while the shard works.
type channel struct {
	id     string
	shard  *shard
	det    Detector
	batch  batchObserver // det, or det lane by lane when it cannot batch
	tstats tierStatser   // det, when it exposes tier counters (else nil)

	observed    atomic.Uint64 // successfully scored observations
	warmups     atomic.Uint64 // scored observations still in warm-up
	detected    atomic.Uint64 // anomaly verdicts
	dropped     atomic.Uint64 // observations shed under DropNewest
	rejected    atomic.Uint64 // submissions refused by admission control
	errors      atomic.Uint64 // detector errors
	tierskipped atomic.Uint64 // segments cleared by the tier gate, no LSTM run
	pending     atomic.Int64  // enqueued but not yet executed

	batches atomic.Uint64 // scoring rounds executed
	batched atomic.Uint64 // observations scored across those rounds

	// walSeq is the channel's journal sequence counter (last assigned;
	// 1-based, node-local: it restarts when the channel is attached
	// fresh). applied is the highest journal sequence already scored —
	// what a checkpoint records as the channel's replay floor. That floor
	// is only sound because walMu serialises {assign seq, journal append,
	// enqueue} for live submissions: enqueue order equals sequence order
	// per channel, so applied = N implies every record ≤ N was applied and
	// a checkpoint can never cover a journaled-but-unapplied record.
	walMu   sync.Mutex
	walSeq  atomic.Uint64
	applied atomic.Uint64
	// tombstoned (guarded by walMu) is set once Detach has journaled the
	// channel's tombstone: a submitter that resolved the channel before it
	// left the table must not journal a record behind it.
	tombstoned bool

	// actionDim/audienceDim are the detector's expected feature dims,
	// cached at Attach when the detector exposes them (0 = unknown). The
	// journaling accept path refuses mis-dimensioned observations before
	// they reach the journal: a record that can only ever score as an
	// error must not enter the durable replay history.
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

// send enqueues j honouring the overflow policy. It reports ErrClosed
// after Close won the gate, ErrOverloaded when dropping.
func (s *shard) send(j job, drop bool) error {
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if drop {
		select {
		case s.queue <- j:
		default:
			return ErrOverloaded
		}
		return nil
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
	// TierSkipped counts segments the tier gate cleared without running
	// the LSTM predict at all; zero for untiered detectors.
	TierSkipped uint64 `json:"tier_skipped,omitempty"`
	// Dropped counts observations shed under the DropNewest policy.
	Dropped uint64 `json:"dropped"`
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
	j.Key("dropped").Uint(cs.Dropped)
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
	// Observed/Detected/Dropped/Rejected/Errors are sums over all channels.
	Observed uint64 `json:"observed"`
	Detected uint64 `json:"detected"`
	Dropped  uint64 `json:"dropped"`
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
	j.Key("dropped").Uint(ps.Dropped)
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

// runShard executes the channel-confined detection loop of one shard: it
// alone calls ObserveBatch on the detectors of the channels hashed to it,
// which is what makes the single-writer Detector safe under a concurrent
// pool. Each wake-up drains a run of pending jobs — whatever is already
// queued, up to the Batch cap (0 and 1 both mean one job) — and scores
// per-channel groups in one batched call each.
func (p *DetectorPool) runShard(s *shard) {
	defer p.wg.Done()
	limit := max(p.cfg.Batch, 1)
	var (
		jobs    = make([]job, 0, limit)
		scratch batchScratch
	)
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
		p.refreshTier(ch)
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
		n, err := ch.batch.ObserveBatch(sc.acts[done:], sc.auds[done:], results)
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

// finishJob updates the channel counters for one scored observation and
// delivers its outcome.
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
	}
	if j.seq != 0 {
		// CAS-max. On the live path submit's walMu makes same-channel
		// enqueues arrive in sequence order, so this max is a true floor
		// (applied = N means everything ≤ N was applied); the CAS keeps it
		// monotonic against AttachJournal seeding and replay regardless.
		for {
			cur := ch.applied.Load()
			if j.seq <= cur || ch.applied.CompareAndSwap(cur, j.seq) {
				break
			}
		}
	}
	if err == nil && !res.Warmup && p.sink != nil {
		p.sink.Record(ch.id, j.seq, res)
	}
	j.out <- Outcome{Result: res, Err: err, Seq: j.seq}
}

// refreshTier re-reads the detector's tier gauge.
func (p *DetectorPool) refreshTier(ch *channel) {
	if ch.tstats != nil {
		ch.tierskipped.Store(uint64(ch.tstats.TierStats().Skipped))
	}
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
// the pool: from now on only the channel's shard worker calls Observe on
// it. Attaching an existing id fails with ErrChannelExists.
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
	ts, _ := det.(tierStatser)
	ch := &channel{id: id, shard: p.shardFor(id), det: det, tstats: ts}
	if ch.batch, _ = det.(batchObserver); ch.batch == nil {
		ch.batch = laneByLane{det}
	}
	if ds, ok := det.(dimser); ok {
		ch.actionDim, ch.audienceDim = ds.Dims()
	}
	if lc, ok := det.(lifetimeCounter); ok {
		if n := lc.Observed(); n > 0 {
			ch.observed.Store(uint64(n))
		}
		if n := lc.Detected(); n > 0 {
			ch.detected.Store(uint64(n))
		}
	}
	if ts != nil {
		if n := ts.TierStats().Skipped; n > 0 {
			ch.tierskipped.Store(uint64(n))
		}
	}
	if seq, ok := p.retired[id]; ok {
		// A new incarnation of a detached id: number on from its tombstone,
		// and start its checkpoint floor there too, so a replay skips the
		// dead incarnation's records instead of applying them to this one.
		ch.walSeq.Store(seq)
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
		ch.walMu.Lock()
		seq, err := p.journalNext(ch, nil, nil)
		ch.tombstoned = err == nil
		ch.walMu.Unlock()
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

// Submit enqueues one observation for the channel and returns a buffered
// receive-only outcome channel that delivers exactly one Outcome. Under the
// Block policy Submit waits for queue space; under DropNewest a full queue
// fails fast with ErrOverloaded and increments the channel's drop counter.
//
// The caller must treat the feature slices as frozen until the outcome is
// delivered (the pool does not copy them).
func (p *DetectorPool) Submit(id string, actionFeat, audienceFeat []float64) (<-chan Outcome, error) {
	return p.submit(id, actionFeat, audienceFeat, make(chan Outcome, 1), 0)
}

// SubmitInto is Submit with a caller-owned outcome channel, so high-rate
// async producers can recycle channels instead of allocating one per
// segment (at tens of thousands of segments per second, per-submit
// channel garbage is measurable GC pressure and latency jitter). out must
// be buffered with capacity ≥ 1 and fully drained before reuse; exactly
// one Outcome is delivered per successful SubmitInto. As with Submit, the
// feature vectors must stay unchanged until that Outcome is delivered;
// from then on they are the caller's to overwrite (an *aovlis.Detector
// keeps copies of what it needs).
func (p *DetectorPool) SubmitInto(id string, actionFeat, audienceFeat []float64, out chan Outcome) error {
	if cap(out) < 1 {
		return fmt.Errorf("serve: SubmitInto outcome channel must be buffered (cap ≥ 1)")
	}
	_, err := p.submit(id, actionFeat, audienceFeat, out, 0)
	return err
}

// submit is Submit with a caller-supplied outcome channel (buffered, cap 1)
// so the synchronous Observe path can recycle channels through a pool. The
// path is lock-free on pool-global state: one atomic map load, then the
// per-shard send gate. Journaled live submissions additionally serialise
// on their channel's walMu (different channels stay independent).
//
// replaySeq is 0 for live traffic; the boot replay path passes the
// record's original journal sequence instead, which suppresses
// re-journaling while keeping the applied floor and ledger entries
// aligned with the original run.
func (p *DetectorPool) submit(id string, actionFeat, audienceFeat []float64, out chan Outcome, replaySeq uint64) (chan Outcome, error) {
	ch, ok := p.lookup(id)
	if !ok {
		if p.isClosed() {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknownChannel, id)
	}
	// Admission control gates the front door: in the reject state the
	// submission is refused before it ever occupies queue space, so
	// nothing accepted is ever discarded. The check is one queue-length
	// read and an atomic load on the no-overload path.
	if p.adm.admit(len(ch.shard.queue)) == AdmitReject {
		ch.rejected.Add(1)
		p.m.rejected.Inc()
		return nil, fmt.Errorf("%w (channel %q, shard %d)", ErrRejected, id, ch.shard.index)
	}
	j := job{ch: ch, action: actionFeat, audience: audienceFeat, out: out, enq: time.Now(), seq: replaySeq}
	journaling := replaySeq == 0 && p.journal != nil
	if journaling {
		// A mis-dimensioned observation can only ever score as a detector
		// error; refuse it here so it never enters the durable replay
		// history (a journaled record must replay cleanly through Observe
		// at the next boot). One with no features at all is refused whatever
		// the detector: in the journal that shape is a channel's tombstone.
		if len(actionFeat)+len(audienceFeat) == 0 ||
			ch.actionDim > 0 && (len(actionFeat) != ch.actionDim || len(audienceFeat) != ch.audienceDim) {
			ch.errors.Add(1)
			p.m.errors.Inc()
			return nil, fmt.Errorf("serve: channel %q: feature dims %d/%d, want %d/%d",
				id, len(actionFeat), len(audienceFeat), ch.actionDim, ch.audienceDim)
		}
		// Durability before acknowledgement: the journal append (which
		// fsyncs before returning) happens ahead of the queue send, so no
		// outcome — and no daemon decision line — can exist for an
		// unjournaled observation. The inverse window is accepted: a
		// record journaled here may still miss its enqueue (DropNewest
		// shed, pool close), and boot replay will apply it once — the
		// at-least-once edge of the contract.
		//
		// walMu holds {assign seq, append, enqueue} together per channel:
		// without it two submitters could enqueue out of sequence order,
		// the CAS-max applied floor could cover a journaled-but-unapplied
		// record, and a checkpoint in that window would let Truncate
		// delete an acknowledged observation that was never applied —
		// silent loss after a kill -9. Same-channel submitters pay the
		// serialisation; cross-channel submitters still interleave inside
		// the journal's group commit.
		ch.walMu.Lock()
		if ch.tombstoned {
			ch.walMu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownChannel, id)
		}
		var err error
		if j.seq, err = p.journalNext(ch, actionFeat, audienceFeat); err != nil {
			ch.walMu.Unlock()
			ch.errors.Add(1)
			p.m.errors.Inc()
			return nil, fmt.Errorf("serve: journal append (channel %q): %w", id, err)
		}
	}
	// The gauge is raised before the send so the worker's decrement can
	// never observe it at zero.
	ch.pending.Add(1)
	err := ch.shard.send(j, p.cfg.Policy == DropNewest)
	if journaling {
		ch.walMu.Unlock()
	}
	if err != nil {
		ch.pending.Add(-1)
		if errors.Is(err, ErrOverloaded) {
			ch.dropped.Add(1)
			p.m.dropped.Inc()
			return nil, fmt.Errorf("%w (queue full, channel %q, shard %d)", ErrOverloaded, id, ch.shard.index)
		}
		return nil, err
	}
	p.m.accepted.Inc()
	return j.out, nil
}

// journalNext appends one record as ch's next sequence and returns it. A
// failed append un-assigns the burned sequence, so a rejected record leaves
// no gap in the journal numbering (cluster failover treats a gap as a
// degraded channel). Callers hold ch.walMu, which is what makes the
// un-assign safe.
func (p *DetectorPool) journalNext(ch *channel, action, audience []float64) (uint64, error) {
	seq := ch.walSeq.Add(1)
	if err := p.journal.Append(ch.id, seq, action, audience); err != nil {
		ch.walSeq.Add(^uint64(0))
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

// outcomeChans recycles the buffered outcome channels of the synchronous
// Observe path: Observe always drains its channel, so a drained channel can
// be handed to the next caller without touching the heap.
var outcomeChans = sync.Pool{New: func() any { return make(chan Outcome, 1) }}

// Observe submits one observation and waits for its verdict — the
// synchronous convenience over Submit.
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
	out := outcomeChans.Get().(chan Outcome)
	defer outcomeChans.Put(out)
	if _, err := p.submit(id, actionFeat, audienceFeat, out, replaySeq); err != nil {
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
		if seq > ch.walSeq.Load() {
			ch.walSeq.Store(seq)
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
// executes inside the channel's shard worker, so no Observe on that shard
// is concurrent with it and the detector's state is between segments.
// This is the continual-learning seam — the absorb loop merges a live
// channel's weights into the shared base through it without stopping the
// stream. fn must not call back into the pool (it would deadlock on its
// own shard) and should be brief: the whole shard is held while it runs.
func (p *DetectorPool) WithChannel(id string, fn func(det Detector) error) error {
	ch, ok := p.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownChannel, id)
	}
	var fnErr error
	if err := p.quiesce(ch, func() { fnErr = fn(ch.det) }); err != nil {
		return err
	}
	return fnErr
}

// AppliedSeq reports the channel's applied journal floor (0 for unknown
// channels or journal-less pools).
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
		Dropped:     c.dropped.Load(),
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
		st.Dropped += cs.Dropped
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
