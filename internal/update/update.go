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

// trainer is one CLSTM_new, the rng its epochs shuffle with, and the views
// of an updater's log it retrains on: a row header per log row and a sample
// per offset. They are scratch, so a retrain allocates nothing once they
// have grown, and put clears them, so a listed trainer holds no log.
type trainer struct {
	model    *core.Trainer
	rng      *rand.Rand
	samples  []core.Sample
	act, aud [][]float64
}

// views returns u's buffered samples as views of its log.
func (tr *trainer) views(u *Updater) []core.Sample {
	cfg := u.model.Config()
	da, db, q := cfg.ActionDim, cfg.AudienceDim, cfg.SeqLen
	tr.act, tr.aud, tr.samples = tr.act[:0], tr.aud[:0], tr.samples[:0]
	for r := 0; r < len(u.act)/da; r++ {
		tr.act = append(tr.act, u.act[r*da:(r+1)*da:(r+1)*da])
		tr.aud = append(tr.aud, u.aud[r*db:(r+1)*db:(r+1)*db])
	}
	for _, o := range u.offsets {
		tr.samples = append(tr.samples, core.Sample{ActionSeq: tr.act[o : o+q : o+q], AudienceSeq: tr.aud[o : o+q : o+q],
			ActionTarget: tr.act[o+q], AudienceTarget: tr.aud[o+q]})
	}
	return tr.samples
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
	clear(tr.samples)
	clear(tr.act)
	clear(tr.aud)
	l.mu.Lock()
	l.free = append(l.free, tr)
	l.mu.Unlock()
}

// Updater maintains a CLSTM over a stream per Fig. 5.
type Updater struct {
	cfg      Config
	model    *core.Model
	trainers *Trainers

	history  setSketch // S_h: hidden states of historical data
	incoming setSketch // S_n: hidden states of buffered incoming data
	hidden   []float64 // reused Model.HiddenInto destination
	// act/aud are the log: the rows the buffered samples read, copied in
	// stream order onto one flat backing a side; end is the stream position
	// of its last row. offsets is n_tmp: buffered sample i reads rows
	// offsets[i] … offsets[i]+q−1, its window, and offsets[i]+q, its
	// target. A drift check empties all three and keeps their arrays.
	act, aud []float64
	end      int
	offsets  []int

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
// is copied, so the caller may reuse its rows once Observe returns; its
// Index must be its target's stream position for windows to share rows.
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
		u.offsets = append(u.offsets, u.push(&sample))
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
	u.offsets, u.act, u.aud = u.offsets[:0], u.act[:0], u.aud[:0]
	return res, nil
}

// push copies s's window and target into the log and returns the log row
// its window starts at. s's window holds stream positions Index−q …
// Index−1 and the log's last row is at end, so the log's last k rows are
// the window's first k: shared when they hold the same float64 bits (−0
// and NaN payloads stay exact), and only the rows past them are appended.
// A sample whose Index does not follow its rows starts a fresh run.
func (u *Updater) push(s *core.Sample) int {
	cfg := u.model.Config()
	q, da, db := cfg.SeqLen, cfg.ActionDim, cfg.AudienceDim
	rows := len(u.act) / da
	k := u.end - (s.Index - q) + 1
	if k <= 0 || k > min(q, rows) {
		k = 0
	}
	for t, r := 0, rows-k; t < k; t, r = t+1, r+1 {
		if !sameBits(u.act[r*da:(r+1)*da], s.ActionSeq[t]) || !sameBits(u.aud[r*db:(r+1)*db], s.AudienceSeq[t]) {
			k = 0 // ends the loop
		}
	}
	u.grow(q + 1 - k)
	for t := k; t < q; t++ {
		u.act, u.aud = append(u.act, s.ActionSeq[t]...), append(u.aud, s.AudienceSeq[t]...)
	}
	u.act, u.aud = append(u.act, s.ActionTarget...), append(u.aud, s.AudienceTarget...)
	u.end = s.Index
	return rows - k
}

// sameBits reports whether rows a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// grow makes room for n more log rows: MaxBuffer + q at first, what the
// dense first cycle needs (T starts at 1), then doubling for sparser cycles
// (BENCH.md §34) up to (q + 1)·MaxBuffer, what disjoint windows need.
func (u *Updater) grow(n int) {
	cfg := u.model.Config()
	da, q := cfg.ActionDim, cfg.SeqLen
	if need := len(u.act)/da + n; need*da > cap(u.act) {
		c := min(max(need, 2*cap(u.act)/da, u.cfg.MaxBuffer+q), max(need, (q+1)*u.cfg.MaxBuffer))
		u.act = append(make([]float64, 0, c*da), u.act...)
		u.aud = append(make([]float64, 0, c*cfg.AudienceDim), u.aud...)
	}
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
	// Log, Offsets and LogEnd are n_tmp, the buffered presumed-normal
	// samples (codec version 3 on): the log's action rows, then its
	// audience rows; each sample's offset into it; and the stream position
	// of its last row.
	Log     []float64
	Offsets []int
	LogEnd  int
	// Buffer is n_tmp as codec versions 1 and 2 wrote it: samples with
	// rows of their own. SetState restores it; State leaves it empty.
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

// State returns a copy of the updater's runtime state.
func (u *Updater) State() State {
	return State{
		HistorySum:     append([]float64(nil), u.history.sum...),
		HistoryCount:   u.history.count,
		IncomingSum:    append([]float64(nil), u.incoming.sum...),
		IncomingCount:  u.incoming.count,
		Log:            append(slices.Clone(u.act), u.aud...),
		Offsets:        slices.Clone(u.offsets),
		LogEnd:         u.end,
		PrevWindowMean: u.prevWindowMean,
		CurWindowSum:   u.curWindowSum,
		CurWindowN:     u.curWindowN,
		Updates:        u.updates,
		Checks:         u.checks,
	}
}

// SetState replaces the updater's runtime state with a previously exported
// State (the snapshot-restore path). The state is copied in, so the caller
// may keep mutating its State value; a version 1 or 2 Buffer is appended
// to the log as if its samples were observed again. Dimensions and offsets
// are validated against the model: a corrupted snapshot must fail here,
// not as an index panic inside a later Observe or retrain.
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
	da, db, q := cfg.ActionDim, cfg.AudienceDim, cfg.SeqLen
	rows := len(st.Log) / (da + db)
	switch {
	case len(st.Log)%(da+db) != 0:
		return fmt.Errorf("update: log of %d values is not whole rows of %d", len(st.Log), da+db)
	case rows+(q+1)*len(st.Buffer) > (q+1)*u.cfg.MaxBuffer:
		// Each version 1/2 sample appends at most q+1 rows.
		return fmt.Errorf("update: log of %d rows and %d buffered samples can run past (q+1)·MaxBuffer rows", rows, len(st.Buffer))
	}
	for i, o := range st.Offsets {
		if o < 0 || o > rows-1-q || i > 0 && o < st.Offsets[i-1] {
			return fmt.Errorf("update: offset %d (%d) goes backwards or runs past the log's %d rows", i, o, rows)
		}
	}
	for i := range st.Buffer {
		if err := u.model.ValidateTrain(&st.Buffer[i]); err != nil {
			return fmt.Errorf("update: buffered sample %d: %w", i, err)
		}
	}
	u.history = setSketch{sum: append([]float64(nil), st.HistorySum...), count: st.HistoryCount}
	u.incoming = setSketch{sum: append([]float64(nil), st.IncomingSum...), count: st.IncomingCount}
	u.offsets, u.act, u.aud, u.end = append(u.offsets[:0], st.Offsets...), u.act[:0], u.aud[:0], st.LogEnd
	u.act, u.aud = append(u.act, st.Log[:rows*da]...), append(u.aud, st.Log[rows*da:]...)
	for i := range st.Buffer {
		u.offsets = append(u.offsets, u.push(&st.Buffer[i]))
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
	samples := tr.views(u)
	for e := 0; e < u.cfg.TrainEpochs; e++ {
		if _, err := tr.model.TrainEpoch(samples, tr.rng); err != nil {
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
