package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"

	"aovlis/internal/nn"
	"aovlis/internal/snapshot"
	"aovlis/internal/snapshot/flat"
)

// Model is the CLSTM with decoder layers: M(S_I, S_A, θ_p) → (Î, Â)
// (Eq. 11-12 of the paper). It couples LSTM_I (influencer behaviour over
// action features) with LSTM_A (audience interaction behaviour); decoders
// DeI / DeA map the final hidden states back to feature space.
//
// A Model owns two compiled tape-free engines over its parameters — an
// InferPlan for prediction and, from the first training or Hidden call on,
// a TrainPlan for forward, loss and BPTT. The TrainPlan reuses its buffers;
// a prediction runs on a lane set borrowed from the free list of the
// model's Config for the call, so steady-state Predict/TrainStep/HiddenInto
// calls are allocation-free. Model methods are not safe for concurrent use
// — confine a Model to one goroutine, the same single-writer contract the
// Detector documents (see ARCHITECTURE.md); distinct models may predict
// concurrently.
type Model struct {
	cfg Config

	ps    *nn.ParamSet
	cellI *nn.LSTMCell
	cellA *nn.LSTMCell
	decI  *nn.Dense
	decA  *nn.Dense

	opt *nn.Adam

	// plan is the compiled tape-free inference engine (infer.go); it reads
	// ps, so it is never stale. lanes caches the list of lane sets its runs
	// borrow, the one of every model of cfg, looked up on the first run
	// (laneList), so a model that never runs registers no configuration.
	plan  *InferPlan
	lanes atomic.Pointer[laneList]

	// tplan is the training engine (train.go), compiled on first use so
	// inference-only models — every serving channel clone — never pay for
	// its buffers. order is TrainEpoch's reused shuffle permutation.
	tplan *TrainPlan
	order []int
}

// NewModel constructs a CLSTM for the given configuration.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ps := nn.NewParamSet()
	ctxI, ctxA := cfg.ctxDims()
	m := &Model{
		cfg:   cfg,
		ps:    ps,
		cellI: nn.NewLSTMCell(ps, "lstmI", ctxI, cfg.HiddenI, rng),
		cellA: nn.NewLSTMCell(ps, "lstmA", ctxA, cfg.HiddenA, rng),
		// DeI emits a probability distribution (softmax) because action
		// recognition features live on the simplex and are scored with JS
		// divergence; DeA is linear because audience features are scored
		// with L2 distance.
		decI: nn.NewDense(ps, "decI", cfg.HiddenI, cfg.ActionDim, nn.SoftmaxAct, rng),
		decA: nn.NewDense(ps, "decA", cfg.HiddenA, cfg.AudienceDim, nn.Linear, rng),
		opt:  nn.NewAdam(cfg.LearningRate),
	}
	m.plan = compileInferPlan(ps, cfg.SeqLen, m.specs())
	return m, nil
}

// trainPlan returns the training engine, compiling it on first use. It
// reads the live parameters through their matrix headers, as the inference
// plan does, so it can never be stale — not even across a copy-on-write
// detach (nn.TrainCell re-derives its one Data view every backward pass).
func (m *Model) trainPlan() *TrainPlan {
	if m.tplan == nil {
		m.tplan = compileTrainPlan(m.ps, m.cfg.SeqLen, m.specs())
	}
	return m.tplan
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// NumParams returns the number of scalar parameters (the paper reports
// 1,382,713 for its full-scale configuration).
func (m *Model) NumParams() int { return m.ps.NumParams() }

// Params exposes the underlying parameter set (used by the dynamic-update
// merge and by tests).
func (m *Model) Params() *nn.ParamSet { return m.ps }

// Predict returns the model's prediction (f̂_t, â_t) of the next segment's
// features given the q-step history in s. Targets in s are ignored.
func (m *Model) Predict(s *Sample) (fhat, ahat []float64, err error) {
	fhat = make([]float64, m.cfg.ActionDim)
	ahat = make([]float64, m.cfg.AudienceDim)
	if err := m.PredictInto(s, fhat, ahat); err != nil {
		return nil, nil, err
	}
	return fhat, ahat, nil
}

// PredictInto is Predict with caller-supplied output buffers: the
// one-lane PredictBatchInto, a run of the compiled InferPlan (gate-fused
// forward pass) on a borrowed lane set, which is bit-identical to the
// autodiff-tape forward pass it replaced; see infer.go and the golden
// equivalence tests.
func (m *Model) PredictInto(s *Sample, fhat, ahat []float64) error {
	return m.PredictBatchInto([]Sample{*s}, [][]float64{fhat}, [][]float64{ahat})
}

// PredictBatchInto predicts the next-segment features for B = len(samples)
// independent windows in one lane-stacked run: fhats[b]/ahats[b] receive
// sample b's predictions, exactly the float bits PredictInto would produce
// for each sample alone. Targets in the samples are ignored. Once the lane
// sets of the model's configuration have grown to the batch size the call
// performs no heap allocations.
func (m *Model) PredictBatchInto(samples []Sample, fhats, ahats [][]float64) error {
	if len(fhats) != len(samples) || len(ahats) != len(samples) {
		return fmt.Errorf("core: PredictBatchInto got %d samples, %d/%d output buffers",
			len(samples), len(fhats), len(ahats))
	}
	for i := range samples {
		if err := m.checkLane(&samples[i], fhats[i], ahats[i]); err != nil {
			return err
		}
	}
	if len(samples) == 0 {
		return nil
	}
	ls := m.TakeLanes()
	defer ls.Put()
	ls.reserve(len(samples))
	for l := range samples {
		bindLane(ls, l, samples[l].ActionSeq, samples[l].AudienceSeq)
	}
	m.plan.Run(ls, len(samples))
	for l := range samples {
		f, a := ls.Prediction(l)
		copy(fhats[l], f)
		copy(ahats[l], a)
	}
	return nil
}

// PredictWindows predicts `lanes` consecutive windows of one stream laid
// out on the rows of ls (Lanes.Rows) in one lane-stacked run: lane l's
// window is rows from+l−q … from+l−1. Lane l's predictions are then
// ls.Prediction(l) and its final LSTM_I state ls.Hidden(l), bit for bit
// what PredictInto and HiddenInto give for the same window. ls must come
// from the model's TakeLanes.
func (m *Model) PredictWindows(ls *Lanes, from, lanes int) error {
	q, act, aud := m.cfg.SeqLen, ls.rows[0], ls.rows[1]
	switch {
	case ls.list != m.laneList():
		return fmt.Errorf("core: PredictWindows on a lane set of another configuration")
	case lanes < 1 || from < q || from+lanes-1 > len(act):
		return fmt.Errorf("core: PredictWindows of %d lanes from row %d, q = %d, over %d rows", lanes, from, q, len(act))
	}
	ls.reserve(lanes)
	for l := 0; l < lanes; l++ {
		end := from + l
		bindLane(ls, l, act[end-q:end:end], aud[end-q:end:end])
	}
	m.plan.Run(ls, lanes)
	return nil
}

// checkLane validates one prediction window and its output buffers.
func (m *Model) checkLane(s *Sample, fhat, ahat []float64) error {
	if err := s.validate(m.cfg); err != nil {
		return err
	}
	if len(fhat) != m.cfg.ActionDim || len(ahat) != m.cfg.AudienceDim {
		return fmt.Errorf("core: prediction buffers %d/%d, model expects %d/%d",
			len(fhat), len(ahat), m.cfg.ActionDim, m.cfg.AudienceDim)
	}
	return nil
}

// bindLane points lane l of ls at one window (stream 0 is the action
// stream, stream 1 the audience stream).
func bindLane(ls *Lanes, l int, act, aud [][]float64) {
	ls.streams[0].seqs[l], ls.streams[1].seqs[l] = act, aud
}

// HiddenInto writes the final hidden state h_t of LSTM_I for the sample
// into dst, of length HiddenI. The dynamic-update algorithm uses these
// vectors for drift detection because they are "more robust to scene
// changes compared with audience interaction features" (§IV-D); the
// updater falls back on this when no prediction of the window computed
// the state already (PredictWindows, Lanes.Hidden, which the two engines
// agree with bit for bit: TestPlanHiddenMatchesHiddenInto). It runs the
// training engine's forward recurrence, tape-free.
func (m *Model) HiddenInto(s *Sample, dst []float64) error {
	if err := s.validate(m.cfg); err != nil {
		return err
	}
	if len(dst) != m.cfg.HiddenI {
		return fmt.Errorf("core: HiddenInto buffer %d, model hidden is %d", len(dst), m.cfg.HiddenI)
	}
	copy(dst, m.trainPlan().hidden([][][]float64{s.ActionSeq, s.AudienceSeq}, 0))
	return nil
}

// jointLoss returns the training objective (Eq. 13) of the plan's last
// forward against the sample's targets:
// l(I,A) = ω·Loss(Î,I) + (1−ω)·MSE(Â,A).
func (m *Model) jointLoss(p *TrainPlan, s *Sample) float64 {
	lI, lA := p.loss(0, s.ActionTarget), p.loss(1, s.AudienceTarget)
	// Each product rounds before the add, as the tape's Scale nodes did.
	return float64(m.cfg.Omega*lI) + float64((1-m.cfg.Omega)*lA)
}

// TrainStep runs one optimisation step on a single sample and returns its
// loss value before the update. The step runs on the TrainPlan — recurrence,
// head and BPTT all hand-derived — and is bit-identical to recording the
// whole step on an autodiff tape (the tests' trainStepTape).
func (m *Model) TrainStep(s *Sample) (float64, error) {
	if err := m.ValidateTrain(s); err != nil {
		return 0, err
	}
	p := m.trainPlan()
	p.forward([][][]float64{s.ActionSeq, s.AudienceSeq})
	loss := m.jointLoss(p, s)
	// ∂l/∂Loss = ω and ∂l/∂MSE = 1−ω: what the tape's 0 + ω·1 and
	// 0 + (1−ω)·1 come to for every ω in [0, 1].
	dLoss := [2]float64{m.cfg.Omega, 1 - m.cfg.Omega}
	m.opt.StepFlat(m.ps, p.backward(dLoss[:]))
	return loss, nil
}

// ValidateTrain reports whether the model can train on s: its window and
// both targets must have the model's dimensions.
func (m *Model) ValidateTrain(s *Sample) error {
	if err := s.validate(m.cfg); err != nil {
		return err
	}
	if s.ActionTarget == nil || s.AudienceTarget == nil {
		return fmt.Errorf("core: the training loss requires targets")
	}
	return nil
}

// TrainEpoch shuffles samples with rng and performs one TrainStep per
// sample, returning the mean loss. A nil rng keeps the given order.
func (m *Model) TrainEpoch(samples []Sample, rng *rand.Rand) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("core: TrainEpoch with no samples")
	}
	if cap(m.order) < len(samples) {
		m.order = make([]int, len(samples))
	}
	order := m.order[:len(samples)]
	for i := range order {
		order[i] = i
	}
	if rng != nil {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	var total float64
	for _, idx := range order {
		l, err := m.TrainStep(&samples[idx])
		if err != nil {
			return 0, fmt.Errorf("core: sample %d: %w", idx, err)
		}
		total += l
	}
	return total / float64(len(samples)), nil
}

// EvalLoss returns the mean reconstruction loss Re over samples without
// updating parameters — the quantity plotted against epochs in Fig. 8.
func (m *Model) EvalLoss(samples []Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("core: EvalLoss with no samples")
	}
	var total float64
	for i := range samples {
		s := &samples[i]
		if err := m.ValidateTrain(s); err != nil {
			return 0, err
		}
		p := m.trainPlan()
		p.forward([][][]float64{s.ActionSeq, s.AudienceSeq})
		total += m.jointLoss(p, s)
	}
	return total / float64(len(samples)), nil
}

// Score computes the anomaly score REIA(t) of the sample's target segment
// (Eq. 14-16): ω·JS(f_t, f̂_t) + (1−ω)·‖â_t − a_t‖₂.
func (m *Model) Score(s *Sample) (Score, error) {
	fhat, ahat, err := m.Predict(s)
	if err != nil {
		return Score{}, err
	}
	return NewScore(s.ActionTarget, fhat, s.AudienceTarget, ahat, m.cfg.Omega), nil
}

// Clone returns an independent model with m's parameters, a fresh
// optimiser and the exact gate mode: the way a model is copied by the
// serving tier (a Detector per channel) and the re-training baseline alike;
// the dynamic update trains on a Trainer instead. The copy is
// copy-on-write. The clone has its own parameter headers, layer headers and
// lane state, but its parameter values are m's arrays, held read-only by
// both until one of them mutates its parameters: that model's ParamSet
// copies the values out at its next BumpVersion, and its plan, which reads
// the parameters through the headers, follows, leaving the other's
// untouched. A model that is only ever read therefore costs its state, not
// its weights; one that has written costs one copy of them.
//
// Clone reads m (it only sets the sharing mark), so any number of
// goroutines may clone one quiescent model at once; it must not overlap a
// call that mutates m or runs its engines.
func (m *Model) Clone() *Model {
	c := &Model{
		cfg: m.cfg,
		ps:  m.ps.Clone(),
		// The layer descriptors are immutable names and shapes.
		cellI: m.cellI, cellA: m.cellA, decI: m.decI, decA: m.decA,
		opt: nn.NewAdam(m.cfg.LearningRate),
	}
	c.plan = compileInferPlan(c.ps, c.cfg.SeqLen, c.specs())
	c.lanes.Store(m.lanes.Load())
	return c
}

// Trainer is a model that only trains — CLSTM_new of the dynamic update. It
// holds parameters, optimiser moments and a training engine of its own, and
// no inference plan. Reset makes it what src.Clone() would be for training:
// src's parameters and a fresh optimiser, written into the arrays it
// already has, so a trainer reused across retrains allocates nothing after
// its first. A Trainer is not safe for concurrent use.
type Trainer struct{ m *Model }

// NewTrainer returns a trainer holding a copy of src's parameters. It only
// reads src: unlike Clone it sets no sharing mark, so src goes on writing
// its parameters and packing its plan in place.
func NewTrainer(src *Model) *Trainer {
	return &Trainer{m: &Model{
		cfg:   src.cfg,
		ps:    src.ps.Copy(),
		cellI: src.cellI, cellA: src.cellA, decI: src.decI, decA: src.decA,
		opt: nn.NewAdam(src.cfg.LearningRate),
	}}
}

// Reset overwrites the trainer's parameters with src's and restarts its
// optimiser: moments zeroed in place, step count 0.
func (t *Trainer) Reset(src *Model) error {
	if t.m.cfg != src.cfg {
		return fmt.Errorf("core: cannot reset a trainer from a model with a different configuration")
	}
	if err := t.m.ps.CopyFrom(src.ps); err != nil {
		return err
	}
	t.m.opt.Restart()
	return nil
}

// TrainEpoch is Model.TrainEpoch on the trainer's parameters.
func (t *Trainer) TrainEpoch(samples []Sample, rng *rand.Rand) (float64, error) {
	return t.m.TrainEpoch(samples, rng)
}

// Params exposes the trained parameters (the merge reads them).
func (t *Trainer) Params() *nn.ParamSet { return t.m.ps }

// Merge folds other's parameters into m as w·m + (1−w)·other — the
// parameter-space realisation of merge(CLSTM_new, CLSTM_{t-1}) in the
// paper's dynamic-update algorithm (Fig. 5, line 12).
func (m *Model) Merge(other *Model, w float64) error {
	if m.cfg.ctxEqual(other.cfg) {
		return m.ps.Average(other.ps, w)
	}
	return fmt.Errorf("core: cannot merge models with different architectures")
}

// ctxEqual reports whether two configs describe the same architecture.
func (c Config) ctxEqual(o Config) bool {
	return c.ActionDim == o.ActionDim && c.AudienceDim == o.AudienceDim &&
		c.HiddenI == o.HiddenI && c.HiddenA == o.HiddenA &&
		c.SeqLen == o.SeqLen && c.Coupling == o.Coupling
}

// modelWire is the gob payload header of a model stream of snapshot codec
// versions 1 to 3, written after the gob envelope. HasOpt marks whether
// optimiser state follows the parameters.
type modelWire struct {
	Config Config
	HasOpt bool
}

// Save writes the model as a flat record (package flat): configuration
// and weights, without optimiser state. Use SaveRuntime to also capture
// the optimiser so training resumes bit-identically.
func (m *Model) Save(w io.Writer) error { return flat.Write(w, flat.KindModel, m.Sections(false)...) }

// SaveRuntime writes the full model runtime — configuration, weights and
// Adam optimiser state (step count and moment estimates) — as a flat
// record. A model restored from it continues training with bit-identical
// updates; Detector.Snapshot builds on this.
func (m *Model) SaveRuntime(w io.Writer) error {
	return flat.Write(w, flat.KindModel, m.Sections(true)...)
}

// Sections returns the model's sections of a flat record: its
// configuration, its weights and, with opt, its optimiser state.
func (m *Model) Sections(opt bool) []flat.Section {
	s := []flat.Section{
		{Tag: flat.TagModel, Put: func(e *flat.Encoder) { m.cfg.fields(e) }},
		{Tag: flat.TagParams, Put: m.ps.WriteFlat},
	}
	if opt {
		s = append(s, flat.Section{Tag: flat.TagAdam, Put: func(e *flat.Encoder) { m.opt.WriteFlat(e, m.ps) }})
	}
	return s
}

func (c *Config) fields(f flat.Fields) {
	f.Words(&c.ActionDim, &c.AudienceDim, &c.HiddenI, &c.HiddenA, &c.SeqLen, &c.Omega, (*int)(&c.Loss),
		&c.LearningRate, (*int)(&c.Coupling), &c.Seed)
}

// ReadModel reads the model sections of an open flat record. The weights
// section must hold exactly the parameters the configuration makes, which
// is checked before the model is built, so a record allocates no more
// than it declares.
func ReadModel(d *flat.Decoder) (*Model, error) {
	var cfg Config
	if !d.Section(flat.TagModel) {
		return nil, errors.Join(d.Err(), errors.New("core: record holds no model"))
	}
	if cfg.fields(d); d.Err() != nil {
		return nil, fmt.Errorf("core: decoding model configuration: %w", d.Err())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n, ok := cfg.numParams(); !ok || !d.Section(flat.TagParams) || d.Left() != 8*n {
		return nil, fmt.Errorf("core: the record's weights are not the %d parameters of %+v", n, cfg)
	}
	m, err := NewModel(cfg)
	if err == nil {
		err = m.ps.ReadFlat(d)
	}
	if err == nil && d.Section(flat.TagAdam) {
		err = m.opt.ReadFlat(d, m.ps)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// numParams is the number of weights NewModel makes for c, and false if
// a dimension (2²⁰) or q (2¹⁶, which sizes every window) is beyond any
// model's.
func (c Config) numParams() (int64, bool) {
	const most = 1 << 20
	if c.ActionDim > most || c.AudienceDim > most || c.HiddenI > most || c.HiddenA > most || c.SeqLen > 1<<16 {
		return 0, false
	}
	ctxI, ctxA := c.ctxDims()
	hi, ha := int64(c.HiddenI), int64(c.HiddenA)
	return 4*hi*int64(ctxI+1) + 4*ha*int64(ctxA+1) + (hi+1)*int64(c.ActionDim) + (ha+1)*int64(c.AudienceDim), true
}

// LoadModel reconstructs a model written with Save or SaveRuntime: a flat
// record, or a gob stream of snapshot codec versions 1 to 3. It restores
// optimiser state when present.
func LoadModel(r io.Reader) (*Model, error) {
	d, old, err := flat.Open(r, flat.KindModel)
	if old != nil {
		return loadGob(old)
	} else if err != nil {
		return nil, err
	}
	m, err := ReadModel(d)
	if err == nil {
		err = d.Close()
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// loadGob reads a model stream of snapshot codec versions 1 to 3.
func loadGob(r io.Reader) (*Model, error) {
	if _, err := snapshot.ReadHeader(r, snapshot.KindModel); err != nil {
		return nil, err
	}
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decoding model header: %w", err)
	}
	m, err := NewModel(wire.Config)
	if err != nil {
		return nil, err
	}
	if err := m.ps.Load(r); err != nil {
		return nil, err
	}
	if wire.HasOpt {
		if err := m.opt.Load(r); err != nil {
			return nil, err
		}
		if err := m.opt.CheckShapes(m.ps); err != nil {
			return nil, fmt.Errorf("core: model optimiser state: %w", err)
		}
	}
	return m, nil
}
