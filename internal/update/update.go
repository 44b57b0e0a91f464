// Package update implements the paper's dynamic model-update algorithm
// (§IV-D, Fig. 5): incoming segments with low audience interaction are
// buffered as presumed-normal training data; when the buffer reaches ls
// segments, drift is measured as the mean pairwise cosine similarity
// between the hidden states of historical and incoming data (Eq. 17); if
// similarity falls below τ_u, a new CLSTM is trained on the buffer and
// merged with the previous model instead of retraining from scratch.
//
// Eq. 17 computes sim(S_h, S_n) = (1/|S_h||S_n|)·ΣΣ cos(h_i, h_j). Because
// cos(h_i, h_j) = ĥ_i·ĥ_j for unit-normalised vectors, the double sum
// factorises into (Σ_i ĥ_i)·(Σ_j ĥ_j), so the implementation keeps only
// the running sum of unit hidden vectors per set and evaluates the drift
// statistic in O(dim) — exactly, not approximately (verified against the
// brute-force double sum in tests).
package update

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"aovlis/internal/core"
	"aovlis/internal/mat"
)

// MergeMode selects how CLSTM_new is folded into the running model.
type MergeMode int

const (
	// MergeAverage interpolates parameters: θ ← w·θ_new + (1−w)·θ_old.
	// CLSTM_new starts from the old parameters (warm start), so the
	// interpolation is well-defined despite permutation symmetry.
	MergeAverage MergeMode = iota
	// MergeReplace adopts CLSTM_new outright (w = 1), the ablation floor.
	MergeReplace
)

// Config parameterises the updater.
type Config struct {
	// MaxBuffer is ls, the buffer length that triggers a drift check
	// (300 in the paper).
	MaxBuffer int
	// DriftThreshold is τ_u: update when sim(S_h, S_n) ≤ τ_u (0.4 paper).
	DriftThreshold float64
	// TrainEpochs is the number of epochs CLSTM_new trains on the buffer.
	TrainEpochs int
	// MergeWeight is w of MergeAverage (0.5 default).
	MergeWeight float64
	// Mode selects the merge strategy.
	Mode MergeMode
	// Seed drives the training shuffles.
	Seed int64
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		MaxBuffer:      300,
		DriftThreshold: 0.4,
		TrainEpochs:    5,
		MergeWeight:    0.5,
		Mode:           MergeAverage,
		Seed:           1,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.MaxBuffer <= 0:
		return fmt.Errorf("update: MaxBuffer must be positive, got %d", c.MaxBuffer)
	case c.DriftThreshold < -1 || c.DriftThreshold > 1:
		return fmt.Errorf("update: DriftThreshold must be a cosine in [-1,1], got %v", c.DriftThreshold)
	case c.TrainEpochs <= 0:
		return fmt.Errorf("update: TrainEpochs must be positive, got %d", c.TrainEpochs)
	case c.MergeWeight < 0 || c.MergeWeight > 1:
		return fmt.Errorf("update: MergeWeight must be in [0,1], got %v", c.MergeWeight)
	}
	return nil
}

// setSketch is the O(dim) exact representation of a hidden-state set for
// Eq. 17: the sum of unit-normalised members plus the member count. sum is
// nil until the set's first member; reset keeps the zeroed array in spare
// for the next one.
type setSketch struct {
	sum   []float64
	count int
	spare []float64
}

// init gives an empty sketch its zeroed sum of dimension n.
func (s *setSketch) init(n int) {
	if s.sum != nil {
		return
	}
	if len(s.spare) != n {
		s.spare = make([]float64, n)
	}
	s.sum, s.spare = s.spare, nil
}

func (s *setSketch) add(h []float64) {
	n := mat.VecNorm2(h)
	s.init(len(h))
	if n == 0 {
		s.count++ // zero vectors contribute zero cosine everywhere
		return
	}
	for i, v := range h {
		s.sum[i] += v / n
	}
	s.count++
}

func (s *setSketch) merge(o *setSketch) {
	if o.sum == nil {
		return
	}
	s.init(len(o.sum))
	for i, v := range o.sum {
		s.sum[i] += v
	}
	s.count += o.count
}

// reset empties the sketch in place.
func (s *setSketch) reset() {
	if s.sum != nil {
		clear(s.sum)
		s.spare = s.sum
	}
	s.sum = nil
	s.count = 0
}

// Similarity computes Eq. 17 between two sketches.
func similarity(a, b *setSketch) float64 {
	if a.count == 0 || b.count == 0 || a.sum == nil || b.sum == nil {
		return 1 // nothing to compare: treat as no drift
	}
	return mat.VecDot(a.sum, b.sum) / (float64(a.count) * float64(b.count))
}

// PairwiseCosineMean is the brute-force Eq. 17 reference used by tests and
// by callers who hold explicit hidden-state sets.
func PairwiseCosineMean(sh, sn [][]float64) float64 {
	if len(sh) == 0 || len(sn) == 0 {
		return 1
	}
	var total float64
	for _, a := range sh {
		for _, b := range sn {
			total += mat.VecCosine(a, b)
		}
	}
	return total / (float64(len(sh)) * float64(len(sn)))
}

// Result reports what one Observe call did.
type Result struct {
	// Buffered reports whether the segment entered the normal buffer.
	Buffered bool
	// Triggered reports whether the buffer filled and a drift check ran.
	Triggered bool
	// DriftSim is the Eq. 17 similarity when Triggered.
	DriftSim float64
	// Updated reports whether the model was retrained-and-merged.
	Updated bool
}

// Trainers is a free list of CLSTM_new trainers, shared by the updaters of
// one template's detectors (see NewShared). A retrain takes a trainer,
// resets it from its serving model and puts it back after the merge, so the
// number of trainers ever made is bounded by how many retrains run at once,
// not by how many updaters share the list. The zero value is an empty list;
// it is safe for concurrent use.
type Trainers struct {
	mu   sync.Mutex
	free []*trainer
	made int
}

// trainer is one CLSTM_new and the rng its epochs shuffle with.
type trainer struct {
	model *core.Trainer
	rng   *rand.Rand
}

// Made reports how many trainers the list has ever made.
func (l *Trainers) Made() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.made
}

// take pops a trainer, or makes one from serving when the list is empty.
func (l *Trainers) take(serving *core.Model) *trainer {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		tr := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return tr
	}
	l.made++
	l.mu.Unlock()
	return &trainer{model: core.NewTrainer(serving), rng: rand.New(rand.NewSource(0))}
}

// put returns a trainer to the list.
func (l *Trainers) put(tr *trainer) {
	l.mu.Lock()
	l.free = append(l.free, tr)
	l.mu.Unlock()
}

// Updater maintains a CLSTM over a stream per Fig. 5.
type Updater struct {
	cfg      Config
	model    *core.Model
	trainers *Trainers

	history  setSketch     // S_h: hidden states of historical data
	incoming setSketch     // S_n: hidden states of buffered incoming data
	buffer   []core.Sample // n_tmp: buffered presumed-normal segments
	hidden   []float64     // reused Model.HiddenInto destination
	// actLog/audLog are the window log: the rows the buffered samples'
	// windows read, in stream order, action and audience side by side. Each
	// buffered sample's ActionSeq and AudienceSeq are q-row views of it, and
	// a window that overlaps the log's tail — the previous buffered
	// segment's, in a stream buffered densely — adds only the rows past it.
	// Emptied, not freed, by every drift check.
	actLog, audLog [][]float64
	// actRows/audRows own the rows the buffer reads — the log's and the
	// samples' targets — each action row on one backing with its audience
	// row. The first used are in use; a drift check frees them all for the
	// next cycle.
	actRows, audRows [][]float64
	used             int

	// interaction threshold T: mean interaction level of the previous
	// window (Fig. 5 line 4 filters segments with interaction < T).
	prevWindowMean float64
	curWindowSum   float64
	curWindowN     int

	updates int
	checks  int
}

// New builds an updater around a trained model, with a trainer list of its
// own.
func New(model *core.Model, cfg Config) (*Updater, error) {
	return NewShared(model, cfg, new(Trainers))
}

// NewShared builds an updater that trains CLSTM_new on trainers from l, a
// list it shares with the updaters of models of the same configuration.
func NewShared(model *core.Model, cfg Config, l *Trainers) (*Updater, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("update: nil model")
	}
	return &Updater{cfg: cfg, model: model, trainers: l, prevWindowMean: 1, hidden: make([]float64, model.Config().HiddenI)}, nil
}

// Model returns the current model (callers score segments with it).
func (u *Updater) Model() *core.Model { return u.model }

// Updates returns how many merge updates have happened.
func (u *Updater) Updates() int { return u.updates }

// Checks returns how many drift checks have run.
func (u *Updater) Checks() int { return u.checks }

// InteractionThreshold returns the current normal-segment threshold T.
func (u *Updater) InteractionThreshold() float64 { return u.prevWindowMean }

// SeedHistory populates S_h with the hidden states of the (normal)
// training samples, the state the paper assumes at deployment time.
func (u *Updater) SeedHistory(samples []core.Sample) error {
	for i := range samples {
		if err := u.model.HiddenInto(&samples[i], u.hidden); err != nil {
			return fmt.Errorf("update: seeding history: %w", err)
		}
		u.history.add(u.hidden)
	}
	return nil
}

// Observe processes one incoming segment (Fig. 5 lines 2-14): buffer it if
// its audience interaction marks it normal, and when the buffer fills run
// the drift check and possibly the incremental update. A buffered sample
// is copied, so the caller may reuse its rows once Observe returns.
func (u *Updater) Observe(sample core.Sample, interactionLevel float64) (Result, error) {
	return u.ObserveHidden(sample, interactionLevel, nil)
}

// ObserveHidden is Observe for a caller that already holds the model's
// final LSTM_I hidden state for the sample's window — bit for bit what
// Model.HiddenInto computes, which a prediction of that window leaves
// behind (core.Model.LaneHidden) — so a buffered segment costs no second
// recurrence. A nil hidden makes it Observe. hidden is read, not kept.
func (u *Updater) ObserveHidden(sample core.Sample, interactionLevel float64, hidden []float64) (Result, error) {
	var res Result

	// Maintain the adaptive interaction threshold T (mean of the previous
	// window of segments).
	u.curWindowSum += interactionLevel
	u.curWindowN++

	if interactionLevel < u.prevWindowMean {
		// Only a buffered segment's hidden state enters S_n, so only a
		// buffered segment without one pays for the recurrence.
		cfg := u.model.Config()
		// A buffered sample is copied into rows of the model's dims and
		// trained on, so its window and both targets must have them.
		if err := u.model.ValidateTrain(&sample); err != nil {
			return res, fmt.Errorf("update: buffering sample: %w", err)
		}
		switch {
		case hidden == nil:
			if err := u.model.HiddenInto(&sample, u.hidden); err != nil {
				return res, fmt.Errorf("update: hidden state: %w", err)
			}
			hidden = u.hidden
		case len(hidden) != cfg.HiddenI:
			return res, fmt.Errorf("update: hidden state has %d values, model hidden is %d", len(hidden), cfg.HiddenI)
		}
		if cap(u.buffer) == 0 {
			u.buffer = make([]core.Sample, 0, u.cfg.MaxBuffer)
		}
		u.buffer = append(u.buffer, u.logWindow(sample))
		u.incoming.add(hidden)
		res.Buffered = true
	}

	if u.incoming.count < u.cfg.MaxBuffer {
		return res, nil
	}

	// Buffer full: drift check (Fig. 5 lines 6-8).
	res.Triggered = true
	u.checks++
	res.DriftSim = similarity(&u.history, &u.incoming)

	// Roll the interaction-threshold window (UpdateAudiInteractNorm).
	if u.curWindowN > 0 {
		u.prevWindowMean = u.curWindowSum / float64(u.curWindowN)
	}
	u.curWindowSum, u.curWindowN = 0, 0

	if res.DriftSim <= u.cfg.DriftThreshold {
		if err := u.applyUpdate(); err != nil {
			return res, err
		}
		res.Updated = true
		u.updates++
	}

	// S_h ← S_h ∪ S_n; clear S_n and n_tmp (lines 13-14).
	u.history.merge(&u.incoming)
	u.incoming.reset()
	clear(u.buffer)
	u.buffer, u.actLog, u.audLog, u.used = u.buffer[:0], u.actLog[:0], u.audLog[:0], 0
	return res, nil
}

// logWindow returns s copied into rows the updater owns, its window a view
// of the window log. The rows the log's tail already holds — found by value,
// the same float64 bits, so −0 and NaN payloads stay exact — are shared,
// and only the ones past them are appended; the first of those is the
// previous sample's target row when it holds the same bits, as it does when
// that sample was the previous segment. The log starts at the size a fully
// buffered cycle needs (MaxBuffer + q − 1 rows) and grows, by doubling, up
// to q·MaxBuffer rows, what a cycle of disjoint windows needs. Growing
// copies the log into a new array and leaves the samples already buffered
// on the old one, whose rows are the same.
func (u *Updater) logWindow(s core.Sample) core.Sample {
	q := len(s.ActionSeq)
	k := u.overlap(s)
	at, need := len(u.actLog)-k, len(u.actLog)+q-k
	if need > cap(u.actLog) {
		c := max(need, 2*cap(u.actLog), u.cfg.MaxBuffer+q-1)
		c = min(c, max(need, q*u.cfg.MaxBuffer))
		u.actLog = append(make([][]float64, 0, c), u.actLog...)
		u.audLog = append(make([][]float64, 0, c), u.audLog...)
	}
	for t := k; t < q; t++ {
		a, b := s.ActionSeq[t], s.AudienceSeq[t]
		if n := len(u.buffer); t == k && n > 0 && sameBits(u.buffer[n-1].ActionTarget, a) && sameBits(u.buffer[n-1].AudienceTarget, b) {
			a, b = u.buffer[n-1].ActionTarget, u.buffer[n-1].AudienceTarget
		} else {
			a, b = u.own(a, b)
		}
		u.actLog = append(u.actLog, a)
		u.audLog = append(u.audLog, b)
	}
	s.ActionSeq, s.AudienceSeq = u.actLog[at:need:need], u.audLog[at:need:need]
	s.ActionTarget, s.AudienceTarget = u.own(s.ActionTarget, s.AudienceTarget)
	return s
}

// overlap returns the largest k such that the log's last k rows hold the
// bits of the first k rows of s's window, action and audience alike.
func (u *Updater) overlap(s core.Sample) int {
	n := len(u.actLog)
	for k := min(n, len(s.ActionSeq)); k > 0; k-- {
		if slices.EqualFunc(u.actLog[n-k:], s.ActionSeq[:k], sameBits) && slices.EqualFunc(u.audLog[n-k:], s.AudienceSeq[:k], sameBits) {
			return k
		}
	}
	return 0
}

// sameBits reports whether rows a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// own copies an action/audience row pair into the next free pair the
// updater owns, making one when none is free.
func (u *Updater) own(a, b []float64) ([]float64, []float64) {
	if u.used == len(u.actRows) {
		cfg := u.model.Config()
		buf := make([]float64, cfg.ActionDim+cfg.AudienceDim)
		u.actRows = append(u.actRows, buf[:cfg.ActionDim:cfg.ActionDim])
		u.audRows = append(u.audRows, buf[cfg.ActionDim:])
	}
	ra, rb := u.actRows[u.used], u.audRows[u.used]
	u.used++
	copy(ra, a)
	copy(rb, b)
	return ra, rb
}

// State is the updater's complete mutable runtime state, exported for
// snapshots. Everything that influences future Observe behaviour is here:
// the two Eq. 17 sketches, the buffered presumed-normal samples, the
// adaptive interaction-threshold window, and the update counter (which
// seeds the retraining rng, so restoring it keeps resumed retraining
// bit-identical to an uninterrupted run).
type State struct {
	// HistorySum/HistoryCount are the S_h sketch (sum of unit hidden
	// vectors plus member count); IncomingSum/IncomingCount are S_n.
	HistorySum    []float64
	HistoryCount  int
	IncomingSum   []float64
	IncomingCount int
	// Buffer is n_tmp, the buffered presumed-normal training samples.
	Buffer []core.Sample
	// PrevWindowMean is the interaction threshold T; CurWindowSum and
	// CurWindowN accumulate the next window.
	PrevWindowMean float64
	CurWindowSum   float64
	CurWindowN     int
	// Updates and Checks are the lifetime counters.
	Updates int
	Checks  int
}

// State returns a deep copy of the updater's runtime state, the buffered
// samples' feature rows included: the updater reuses those rows once its
// buffer empties.
func (u *Updater) State() State {
	st := State{
		HistorySum:     append([]float64(nil), u.history.sum...),
		HistoryCount:   u.history.count,
		IncomingSum:    append([]float64(nil), u.incoming.sum...),
		IncomingCount:  u.incoming.count,
		PrevWindowMean: u.prevWindowMean,
		CurWindowSum:   u.curWindowSum,
		CurWindowN:     u.curWindowN,
		Updates:        u.updates,
		Checks:         u.checks,
	}
	st.Buffer = make([]core.Sample, len(u.buffer))
	for i, s := range u.buffer {
		st.Buffer[i] = copySample(s)
	}
	return st
}

// copySample deep-copies a sample: window headers, rows and targets.
func copySample(s core.Sample) core.Sample {
	rows := func(seq [][]float64) [][]float64 {
		out := make([][]float64, len(seq))
		for t, r := range seq {
			out[t] = slices.Clone(r)
		}
		return out
	}
	s.ActionSeq, s.AudienceSeq = rows(s.ActionSeq), rows(s.AudienceSeq)
	s.ActionTarget, s.AudienceTarget = slices.Clone(s.ActionTarget), slices.Clone(s.AudienceTarget)
	return s
}

// SetState replaces the updater's runtime state with a previously exported
// State (the snapshot-restore path). The state is copied in, so the caller
// may keep mutating its State value. Dimensions are validated against the
// model: a corrupted snapshot must fail here, not as an index panic inside
// a later Observe or retrain.
func (u *Updater) SetState(st State) error {
	if st.HistoryCount < 0 || st.IncomingCount < 0 || st.CurWindowN < 0 || st.Updates < 0 || st.Checks < 0 {
		return fmt.Errorf("update: negative counter in state")
	}
	cfg := u.model.Config()
	if len(st.HistorySum) != 0 && len(st.HistorySum) != cfg.HiddenI {
		return fmt.Errorf("update: history sketch has dim %d, model hidden is %d", len(st.HistorySum), cfg.HiddenI)
	}
	if len(st.IncomingSum) != 0 && len(st.IncomingSum) != cfg.HiddenI {
		return fmt.Errorf("update: incoming sketch has dim %d, model hidden is %d", len(st.IncomingSum), cfg.HiddenI)
	}
	for i := range st.Buffer {
		if err := u.model.ValidateTrain(&st.Buffer[i]); err != nil {
			return fmt.Errorf("update: buffered sample %d: %w", i, err)
		}
	}
	u.history = setSketch{sum: append([]float64(nil), st.HistorySum...), count: st.HistoryCount}
	u.incoming = setSketch{sum: append([]float64(nil), st.IncomingSum...), count: st.IncomingCount}
	clear(u.buffer)
	u.buffer, u.actLog, u.audLog, u.used = u.buffer[:0], u.actLog[:0], u.audLog[:0], 0
	for _, s := range st.Buffer {
		u.buffer = append(u.buffer, u.logWindow(s))
	}
	u.prevWindowMean = st.PrevWindowMean
	u.curWindowSum = st.CurWindowSum
	u.curWindowN = st.CurWindowN
	u.updates = st.Updates
	u.checks = st.Checks
	return nil
}

// applyUpdate trains CLSTM_new on the buffered segments (warm-started from
// the current parameters) and merges it into the running model. CLSTM_new
// is a trainer from the shared list, reset from the running model: the
// parameters, fresh optimiser and shuffle seed a Clone of it would start
// from, in arrays the trainer reuses.
func (u *Updater) applyUpdate() error {
	tr := u.trainers.take(u.model)
	defer u.trainers.put(tr)
	if err := tr.model.Reset(u.model); err != nil {
		return fmt.Errorf("update: resetting CLSTM_new: %w", err)
	}
	tr.rng.Seed(u.cfg.Seed + int64(u.updates))
	for e := 0; e < u.cfg.TrainEpochs; e++ {
		if _, err := tr.model.TrainEpoch(u.buffer, tr.rng); err != nil {
			return fmt.Errorf("update: training CLSTM_new: %w", err)
		}
	}
	switch u.cfg.Mode {
	case MergeReplace:
		return u.model.Params().CopyFrom(tr.model.Params())
	case MergeAverage:
		// θ_model ← (1−w)·θ_model + w·θ_new.
		return u.model.Params().Average(tr.model.Params(), 1-u.cfg.MergeWeight)
	default:
		return fmt.Errorf("update: unknown merge mode %d", u.cfg.Mode)
	}
}
