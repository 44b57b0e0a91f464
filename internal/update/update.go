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

	"aovlis/internal/core"
	"aovlis/internal/mat"
	"aovlis/internal/snapshot/flat"
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

// trainerLists holds a free list of CLSTM_new trainers per model
// configuration: the updaters of every model of one configuration — a
// template's, its clones', a detector's loaded or restored with it —
// retrain on one list, looked up at each retrain, so an updater that never
// retrains registers no configuration. A retrain takes a trainer, resets it
// from its serving model and puts it back after the merge, so the number
// of trainers ever made is bounded by how many retrains run at once, not
// by how many updaters share the list.
var trainerLists core.PerConfig[core.FreeList[trainer]]

// TrainersMade reports how many trainers the updaters of models of cfg have
// made.
func TrainersMade(cfg core.Config) int { return trainerLists.For(cfg).Made() }

// trainer is one CLSTM_new, the rng its epochs shuffle with, and the views
// of an updater's log it retrains on: a row header per log row and a sample
// per offset. They are scratch, made to a longer retrain's length when it
// comes, and a retrain clears them before it puts the trainer back.
type trainer struct {
	model    *core.Trainer
	rng      *rand.Rand
	samples  []core.Sample
	act, aud [][]float64
}

// views returns u's buffered samples as views of its log.
func (tr *trainer) views(u *Updater) []core.Sample {
	q := u.model.Config().SeqLen
	if cap(tr.act) < u.rows {
		tr.act, tr.aud = make([][]float64, u.rows), make([][]float64, u.rows)
	}
	if cap(tr.samples) < len(u.offsets) {
		tr.samples = make([]core.Sample, len(u.offsets))
	}
	tr.act, tr.aud, tr.samples = tr.act[:u.rows], tr.aud[:u.rows], tr.samples[:len(u.offsets)]
	for r := range tr.act {
		tr.act[r], tr.aud[r] = u.row(r)
	}
	for i, o := range u.offsets {
		tr.samples[i] = core.Sample{ActionSeq: tr.act[o : o+q : o+q], AudienceSeq: tr.aud[o : o+q : o+q],
			ActionTarget: tr.act[o+q], AudienceTarget: tr.aud[o+q]}
	}
	return tr.samples
}

// clear drops the trainer's views of the log it retrained on, so a listed
// trainer holds no log.
func (tr *trainer) clear() {
	clear(tr.samples)
	clear(tr.act)
	clear(tr.aud)
}

// chunk is chunkRows log rows, action and audience values apart: 12 288
// and 4 864 bytes at the benchmark shape (48/19), both exact size classes.
type chunk struct{ act, aud []float64 }

const chunkRows = 32

// chunkLists holds log chunks per model configuration, as trainerLists does
// trainers: a log takes one when its last is full and puts all back at the
// drift check, so no row is copied twice and no log held between cycles.
var chunkLists core.PerConfig[core.FreeList[chunk]]

// Updater maintains a CLSTM over a stream per Fig. 5.
type Updater struct {
	cfg   Config
	model *core.Model

	history  setSketch // S_h: hidden states of historical data
	incoming setSketch // S_n: hidden states of buffered incoming data
	hidden   []float64 // reused Model.HiddenInto destination
	// chunks hold the log, rows long: the rows the buffered samples read,
	// copied in stream order; end is the stream position of its last row.
	// offsets is n_tmp: buffered sample i reads rows offsets[i] …
	// offsets[i]+q−1, its window, and offsets[i]+q, its target.
	chunks  []*chunk
	rows    int
	end     int
	offsets []int

	// interaction threshold T: mean interaction level of the previous
	// window (Fig. 5 line 4 filters segments with interaction < T).
	prevWindowMean float64
	curWindowSum   float64
	curWindowN     int

	updates int
	checks  int
}

// New builds an updater around a trained model. It trains CLSTM_new on
// trainers from the list it shares with the updaters of every model of the
// same configuration.
func New(model *core.Model, cfg Config) (*Updater, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("update: nil model")
	}
	return &Updater{cfg: cfg, model: model, prevWindowMean: 1, hidden: make([]float64, model.Config().HiddenI)}, nil
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
// Model.HiddenInto computes, which a prediction of that window leaves in
// the lane set the caller holds (core.Model.PredictWindows,
// core.Lanes.Hidden) — so a buffered segment costs no second recurrence.
// A nil hidden makes it Observe. hidden is read, not kept.
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
	u.release()
	return res, nil
}

// push copies s's window and target into the log and returns the log row
// its window starts at. s's window holds stream positions Index−q …
// Index−1 and the log's last row is at end, so the log's last k rows are
// the window's first k: shared when they hold the same float64 bits (−0
// and NaN payloads stay exact), and only the rows past them are appended.
// A sample whose Index does not follow its rows starts a fresh run.
func (u *Updater) push(s *core.Sample) int {
	q, start := u.model.Config().SeqLen, u.rows
	k := u.end - (s.Index - q) + 1
	if k <= 0 || k > min(q, u.rows) {
		k = 0
	}
	for t, r := 0, u.rows-k; t < k; t, r = t+1, r+1 {
		if act, aud := u.row(r); !sameBits(act, s.ActionSeq[t]) || !sameBits(aud, s.AudienceSeq[t]) {
			k = 0 // ends the loop
		}
	}
	for t := k; t < q; t++ {
		u.appendRow(s.ActionSeq[t], s.AudienceSeq[t])
	}
	u.appendRow(s.ActionTarget, s.AudienceTarget)
	u.end = s.Index
	return start - k
}

// sameBits reports whether rows a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// row returns log row r's action and audience values.
func (u *Updater) row(r int) (act, aud []float64) {
	c, i, da, db := u.chunks[r/chunkRows], r%chunkRows, u.model.Config().ActionDim, u.model.Config().AudienceDim
	return c.act[i*da : (i+1)*da : (i+1)*da], c.aud[i*db : (i+1)*db : (i+1)*db]
}

// appendRow copies a row onto the log, taking a chunk when the last is full.
func (u *Updater) appendRow(act, aud []float64) {
	if u.rows == len(u.chunks)*chunkRows {
		cfg := u.model.Config()
		c := chunkLists.For(cfg).Take()
		if c == nil {
			c = &chunk{act: make([]float64, chunkRows*cfg.ActionDim), aud: make([]float64, chunkRows*cfg.AudienceDim)}
		}
		u.chunks = append(u.chunks, c)
	}
	dstAct, dstAud := u.row(u.rows)
	copy(dstAct, act)
	copy(dstAud, aud)
	u.rows++
}

// release empties n_tmp and puts the log's chunks back on their list.
func (u *Updater) release() {
	for _, c := range u.chunks {
		chunkLists.For(u.model.Config()).Put(c)
	}
	clear(u.chunks)
	u.chunks, u.rows, u.offsets = u.chunks[:0], 0, u.offsets[:0]
}

// State is the updater's complete mutable runtime state as a snapshot
// holds it (ReadState), for SetState to restore. Everything that influences future Observe behaviour is here:
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
	// rows of their own. SetState restores it; ReadState leaves it empty.
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

// WriteFlat writes the updater's state as the updater section of a flat
// record, straight from the rows it holds: State's counters and the
// lengths of its slices, the two sketches, the offsets, then the log's
// action rows and its audience rows — State's Log.
func (u *Updater) WriteFlat(e *flat.Encoder) {
	st := State{HistoryCount: u.history.count, IncomingCount: u.incoming.count, LogEnd: u.end,
		PrevWindowMean: u.prevWindowMean, CurWindowSum: u.curWindowSum, CurWindowN: u.curWindowN,
		Updates: u.updates, Checks: u.checks}
	lens := [4]int{len(u.history.sum), len(u.incoming.sum), u.rows, len(u.offsets)}
	st.fields(e, &lens)
	e.Floats(u.history.sum)
	e.Floats(u.incoming.sum)
	for i := range u.offsets {
		e.Words(&u.offsets[i])
	}
	for r := 0; r < u.rows; r++ {
		act, _ := u.row(r)
		e.Floats(act)
	}
	for r := 0; r < u.rows; r++ {
		_, aud := u.row(r)
		e.Floats(aud)
	}
}

func (st *State) fields(f flat.Fields, lens *[4]int) {
	f.Words(&lens[0], &st.HistoryCount, &lens[1], &st.IncomingCount, &lens[2], &lens[3],
		&st.LogEnd, &st.CurWindowN, &st.Updates, &st.Checks, &st.PrevWindowMean, &st.CurWindowSum)
}

// ReadState reads the State an updater section holds, of a log of rows of
// width floats, for SetState to check and restore.
func ReadState(d *flat.Decoder, width int) State {
	var st State
	var lens [4]int
	st.fields(d, &lens)
	st.HistorySum, st.IncomingSum = d.Floats(lens[0]), d.Floats(lens[1])
	if d.Fits(lens[3], 8) {
		st.Offsets = make([]int, lens[3])
		for i := range st.Offsets {
			d.Words(&st.Offsets[i])
		}
	}
	if d.Fits(lens[2], 8*width) {
		st.Log = d.Floats(lens[2] * width)
	}
	return st
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
	u.release()
	u.offsets, u.end = append(u.offsets, st.Offsets...), st.LogEnd
	for r, aud := 0, st.Log[rows*da:]; r < rows; r++ {
		u.appendRow(st.Log[r*da:(r+1)*da], aud[r*db:(r+1)*db])
	}
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
	trainers := trainerLists.For(u.model.Config())
	tr := trainers.Take()
	if tr == nil {
		tr = &trainer{model: core.NewTrainer(u.model), rng: rand.New(rand.NewSource(0))}
	}
	defer trainers.Put(tr)
	defer tr.clear()
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
