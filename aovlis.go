// Package aovlis is an open reproduction of "Online Anomaly Detection over
// Live Social Video Streaming" (ICDE 2024): a framework that detects
// anomalies in live social video streams by jointly modelling the
// presenter's visual behaviour and the audience's real-time interaction
// with a Coupling LSTM (CLSTM), scoring segments with the fused
// reconstruction error REIA, and maintaining the model incrementally as the
// stream drifts. The paper's ADG/L1 bound strategies (ADOS) are reproduced
// in internal/ados for its Fig. 11/12 experiments; a served verdict is the
// exact REIA against τ.
//
// The top-level API is the Detector: train it on a normal (anomaly-free)
// feature series, then feed it the stream's per-segment features — it
// reports an anomaly decision per segment in O(segment) time:
//
//	cfg := aovlis.DefaultConfig(d1, d2)
//	det, err := aovlis.Train(normalActions, normalAudience, cfg)
//	...
//	res, err := det.Observe(actionFeat, audienceFeat)
//	if res.Anomaly { ... }
//
// Feature extraction from raw segments (I3D-style action features and the
// comment-count/embedding/sentiment audience features) lives in
// internal/feature and is exercised end to end by the bundled examples and
// the cmd/ tools; the Detector itself is feature-agnostic and consumes any
// aligned pair of feature series.
package aovlis

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"

	"aovlis/internal/ados"
	"aovlis/internal/core"
	"aovlis/internal/snapshot/flat"
	"aovlis/internal/update"
)

// Config assembles the paper's knobs in one place.
type Config struct {
	// ActionDim (d1) and AudienceDim (d2) are the feature dimensions.
	ActionDim, AudienceDim int
	// HiddenI / HiddenA are the CLSTM hidden sizes.
	HiddenI, HiddenA int
	// SeqLen is q, the history window length (9 in the paper).
	SeqLen int
	// Omega is ω, the REIA weight of the action stream (Eq. 16).
	Omega float64
	// Epochs is the training budget.
	Epochs int
	// LearningRate is the Adam learning rate.
	LearningRate float64
	// TauQuantile places the anomaly threshold τ at this quantile of the
	// validation REIA scores (the operational form of the paper's τ sweep).
	TauQuantile float64
	// EnableUpdate turns on the dynamic model-update machinery (Fig. 5).
	EnableUpdate bool
	// Update configures the updater when EnableUpdate is set.
	Update update.Config
	// Tiered enables bound-gated skipping of the exact LSTM predict: when
	// the last exactly-scored segment's predictions still clear the JSmax
	// normal bound with margin, the segment is declared normal without
	// running the model (see ados.TierPlan for the guard rails).
	Tiered bool
	// Tier configures the skip gate when Tiered is set. The zero value
	// means ados.DefaultTierConfig().
	Tier ados.TierConfig
	// Seed drives all stochastic choices.
	Seed int64
}

// DefaultConfig returns the paper's configuration for the given feature
// dimensions.
func DefaultConfig(actionDim, audienceDim int) Config {
	return Config{
		ActionDim:    actionDim,
		AudienceDim:  audienceDim,
		HiddenI:      32,
		HiddenA:      16,
		SeqLen:       9,
		Omega:        0.8,
		Epochs:       15,
		LearningRate: 0.01,
		TauQuantile:  0.95,
		EnableUpdate: false,
		Update:       update.DefaultConfig(),
		Seed:         1,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.Epochs <= 0 {
		return fmt.Errorf("aovlis: Epochs must be positive, got %d", c.Epochs)
	}
	if c.TauQuantile < 0 || c.TauQuantile > 1 {
		return fmt.Errorf("aovlis: TauQuantile must be in [0,1], got %v", c.TauQuantile)
	}
	if c.Tiered {
		if _, err := ados.NewTierPlan(c.tierConfig(), c.ActionDim, c.AudienceDim); err != nil {
			return err
		}
	}
	return c.modelConfig().Validate()
}

// tierConfig resolves the tier gate configuration, defaulting the zero
// value to ados.DefaultTierConfig().
func (c Config) tierConfig() ados.TierConfig {
	if c.Tier == (ados.TierConfig{}) {
		return ados.DefaultTierConfig()
	}
	return c.Tier
}

func (c Config) modelConfig() core.Config {
	mc := core.DefaultConfig(c.ActionDim, c.AudienceDim)
	mc.HiddenI, mc.HiddenA = c.HiddenI, c.HiddenA
	mc.SeqLen = c.SeqLen
	mc.Omega = c.Omega
	mc.LearningRate = c.LearningRate
	mc.Seed = c.Seed
	return mc
}

// Result is the detector's verdict for one observed segment.
type Result struct {
	// Warmup is true while the detector still lacks q segments of history;
	// no decision is made.
	Warmup bool
	// Anomaly is the decision (false during warm-up).
	Anomaly bool
	// Score is the REIA score (or the tier gate's proxy estimate when the
	// gate cleared the segment without running the model).
	Score float64
	// Exact reports whether Score is the exact REIA value.
	Exact bool
	// Path names the deciding mechanism: "exact" or "tier-skip".
	Path string
	// Updated is true when this observation triggered an incremental model
	// update.
	Updated bool
}

// ErrConcurrentObserve is returned when Observe detects a second concurrent
// caller instead of letting it corrupt the sliding window.
var ErrConcurrentObserve = errors.New("aovlis: concurrent Observe calls on one Detector (single-writer contract; route channels through internal/serve)")

// Detector is the online AOVLIS anomaly detector.
//
// Concurrency contract: a Detector is a single-writer object. Observe,
// ObserveBatch, DetectSeries, Recalibrate, SetTau, SetScoringMode and
// Snapshot are writers — they mutate internal state (the sliding window,
// the tier gate, with EnableUpdate the model weights themselves) or, as
// Snapshot does, take the single-writer flag — and must be confined to
// one goroutine at a time. Save and Clone only read, as do the accessors
// (Tau, Observed, Detected, TierStats): readers may run together, but
// only while no writer is active; work through Model is a writer's (see
// Model). Observe enforces the contract cheaply: a call that races with
// another Observe fails with ErrConcurrentObserve rather than silently
// corrupting the window. To score many streams concurrently, give each its
// own Detector and confine each to one goroutine — the DetectorPool in
// internal/serve does exactly this.
type Detector struct {
	cfg   Config
	model *core.Model
	tier  *ados.TierPlan
	upd   *update.Updater
	tau   float64

	// actWin/audWin hold the sliding window of the last q segments in q
	// rows the detector owns, views over one flat backing per side: every
	// consumed segment is copied in, so a caller may reuse its vectors once
	// the call returns. Everything sized by a batch's width is the lane set
	// observeLanes borrows (see there).
	actWin, audWin [][]float64

	observed int
	detected int

	// observing guards the single-writer contract on the Observe path.
	observing atomic.Int32
}

// Train fits a detector on a normal (anomaly-free) feature series: the
// CLSTM is trained on 75% of the sequences, τ is calibrated on the
// remaining 25%, and the dynamic updater (when enabled) is seeded with the
// training hidden states.
func Train(actions, audience [][]float64, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model, err := core.NewModel(cfg.modelConfig())
	if err != nil {
		return nil, err
	}
	samples, err := core.BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		return nil, err
	}
	split := len(samples) * 3 / 4
	if split == 0 || split == len(samples) {
		return nil, fmt.Errorf("aovlis: need more training data (%d sequences)", len(samples))
	}
	train, valid := samples[:split], samples[split:]
	rng := rand.New(rand.NewSource(cfg.Seed))
	for e := 0; e < cfg.Epochs; e++ {
		if _, err := model.TrainEpoch(train, rng); err != nil {
			return nil, fmt.Errorf("aovlis: training epoch %d: %w", e, err)
		}
	}
	tau, err := calibrate(model, valid, cfg.TauQuantile)
	if err != nil {
		return nil, err
	}

	d := &Detector{cfg: cfg, model: model, tau: tau}
	if err := d.initRuntime(train); err != nil {
		return nil, err
	}
	return d, nil
}

// initRuntime builds the tier gate and updater around the trained model.
func (d *Detector) initRuntime(seedSamples []core.Sample) error {
	if d.cfg.Tiered {
		tier, err := ados.NewTierPlan(d.cfg.tierConfig(), d.cfg.ActionDim, d.cfg.AudienceDim)
		if err != nil {
			return err
		}
		d.tier = tier
	}
	if d.cfg.EnableUpdate {
		upd, err := update.New(d.model, d.cfg.Update)
		if err != nil {
			return err
		}
		if seedSamples != nil {
			if err := upd.SeedHistory(seedSamples); err != nil {
				return err
			}
		}
		d.upd = upd
	}
	return nil
}

// Tau returns the calibrated anomaly threshold τ.
func (d *Detector) Tau() float64 { return d.tau }

// Dims reports the feature dimensions the detector scores
// (Config.ActionDim, Config.AudienceDim). Serving front doors use it to
// reject mis-dimensioned observations before they occupy queue space or
// enter a durable journal.
func (d *Detector) Dims() (actionDim, audienceDim int) {
	return d.cfg.ActionDim, d.cfg.AudienceDim
}

// SetTau overrides the anomaly threshold; the next verdict uses it.
func (d *Detector) SetTau(tau float64) { d.tau = tau }

// Model exposes the underlying CLSTM (used by experiments). The model's
// compiled engines reuse their buffers, so even read-shaped calls like
// Predict or HiddenInto mutate per-step state: treat Model access as writer activity under the
// detector's single-writer contract and never overlap it with Observe.
func (d *Detector) Model() *core.Model { return d.model }

// SetScoringMode switches the bound-gated tier skip of an existing
// detector on or off, for detectors restored by Load from a model saved
// without it: enabling Tiered on an untiered detector builds a fresh gate,
// disabling drops it. The first argument is ignored: it selected the
// retired fast-math gate kernel, and every detector now scores on the
// exact one. SetScoringMode mutates detector state and is writer activity
// under the single-writer contract; future Clone/Save calls carry the new
// mode.
func (d *Detector) SetScoringMode(_, tiered bool) error {
	if tiered && d.tier == nil {
		tier, err := ados.NewTierPlan(d.cfg.tierConfig(), d.cfg.ActionDim, d.cfg.AudienceDim)
		if err != nil {
			return err
		}
		d.tier = tier
	}
	if !tiered {
		d.tier = nil
	}
	d.cfg.Tiered = tiered
	return nil
}

// TierStats returns the tier gate counters (the zero value when Tiered is
// off).
func (d *Detector) TierStats() ados.TierStats {
	if d.tier == nil {
		return ados.TierStats{}
	}
	return d.tier.Stats()
}

// Observed and Detected return stream-lifetime counters.
func (d *Detector) Observed() int { return d.observed }

// Detected returns how many segments were flagged as anomalies.
func (d *Detector) Detected() int { return d.detected }

// Observe feeds the features of the next segment. Once q segments of
// history are buffered, each call predicts the incoming segment from the
// window, scores it (core.NewScore, the score τ was calibrated on) and
// returns the decision REIA > τ; the window then slides forward. It is the
// one-lane case of ObserveBatch.
//
// The detector copies what it keeps of the two vectors, so the caller may
// overwrite them as soon as Observe returns.
//
// Observe is not safe for concurrent use: a call that overlaps another
// Observe on the same Detector returns ErrConcurrentObserve (see the
// concurrency contract on Detector).
func (d *Detector) Observe(actionFeat, audienceFeat []float64) (Result, error) {
	if !d.observing.CompareAndSwap(0, 1) {
		return Result{}, ErrConcurrentObserve
	}
	defer d.observing.Store(0)
	var res [1]Result
	if _, err := d.observeLanes([][]float64{actionFeat}, [][]float64{audienceFeat}, res[:]); err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// ObserveBatch feeds n = len(actionFeats) consecutive segments of one
// stream in a single call and fills results[0:n] with the per-segment
// verdicts — the micro-batching form of Observe the serve layer's shard
// workers use to amortise inference across a channel's pending queue.
//
// ObserveBatch is bit-identical to n sequential Observe calls: the i-th
// lane's prediction window is the detector's window as it would stand
// after segments 0..i-1, and the score/update pipeline runs serially per
// lane in order. Only the predict step is amortised (see observeLanes).
// Like Observe, it copies what it keeps: the feature vectors are the
// caller's again once it returns.
//
// It returns the number of fully processed segments. On error, processing
// stops at the offending lane exactly as a serial Observe sequence would:
// results[0:n] are valid, the window reflects segments 0..n-1, lane n's
// error is returned, and lanes after n are untouched (the caller may
// resubmit them). Like Observe, ObserveBatch is single-writer: a call
// racing any other writer fails with ErrConcurrentObserve.
func (d *Detector) ObserveBatch(actionFeats, audienceFeats [][]float64, results []Result) (int, error) {
	if len(audienceFeats) != len(actionFeats) || len(results) < len(actionFeats) {
		return 0, fmt.Errorf("aovlis: ObserveBatch slice lengths %d/%d/%d disagree",
			len(actionFeats), len(audienceFeats), len(results))
	}
	if len(actionFeats) == 0 {
		return 0, nil
	}
	if !d.observing.CompareAndSwap(0, 1) {
		return 0, ErrConcurrentObserve
	}
	defer d.observing.Store(0)
	return d.observeLanes(actionFeats, audienceFeats, results)
}

// ReserveLanes readies the lane sets that `sets` ObserveBatch calls at once
// of up to batch segments need (core.Model.ReserveLanes): as wide as
// observeLanes predicts at once — the whole batch, or one lane with the
// tier gate on — over the window and batch rows.
func (d *Detector) ReserveLanes(sets, batch int) {
	lanes := batch
	if d.tier != nil {
		lanes = 1
	}
	d.model.ReserveLanes(sets, lanes, batch)
}

// observeLanes is the segment pipeline, stated once: dims check → warm-up →
// tier gate → predict → score → tier.Commit → updater → slide. The caller
// holds the single-writer flag.
//
// The call borrows a lane set of the model's configuration (core.Lanes)
// and returns it at the end: every buffer sized by the batch's width is
// the set's, shared with every detector of the configuration, so a
// detector keeps its state and no scratch. The window and then the lanes
// are copied onto the set's rows up front, so lane i's history is the q
// rows ending just before it, and the slide copies the last q rows of
// whatever was consumed back into the detector's own window. Everything
// downstream — the predictions, the score, the tier anchor, the updater's
// samples — reads those copies, never the caller's slices, and whatever
// outlives the call (the tier anchor, the updater's buffer) copies them in
// turn.
//
// Predictions are lazy and, where it is safe, batched: when a lane needs a
// prediction and has none, every remaining lane is predicted in one
// PredictWindows pass (a lane's bits don't depend on the lane count) —
// unless the tier gate is on, whose anchor each verdict may move; then that
// lane is predicted alone. The predictions and LSTM_I states are read in
// place from the set. The batch is optimistic about the weights: if a
// lane's update step retrains the model (the parameter version moves), the
// predictions of the lanes after it are discarded, and the next one that
// needs a prediction re-predicts with the new weights — exactly what a
// serial sequence would have used. Updates are drift-triggered and rare, so
// the replay cost is amortised away.
func (d *Detector) observeLanes(acts, auds [][]float64, results []Result) (int, error) {
	// Dims check: the maximal prefix of well-dimensioned lanes is
	// processed; the first bad lane fails after the prefix commits, exactly
	// like a serial sequence where a bad segment touches neither the window
	// nor the counters.
	valid := len(acts)
	var dimErr error
	for i := range acts {
		if len(acts[i]) != d.cfg.ActionDim || len(auds[i]) != d.cfg.AudienceDim {
			valid = i
			dimErr = fmt.Errorf("aovlis: feature dims %d/%d, detector expects %d/%d",
				len(acts[i]), len(auds[i]), d.cfg.ActionDim, d.cfg.AudienceDim)
			break
		}
	}
	q, w0 := d.cfg.SeqLen, len(d.actWin)
	ls := d.model.TakeLanes()
	defer ls.Put()
	act, aud := ls.Rows(w0 + valid)
	for i := 0; i < w0; i++ {
		copy(act[i], d.actWin[i])
		copy(aud[i], d.audWin[i])
	}
	for i := 0; i < valid; i++ {
		copy(act[w0+i], acts[i])
		copy(aud[w0+i], auds[i])
	}

	var err error
	n := 0
	predFrom, predTo := 0, 0 // lanes [predFrom, predTo) hold predictions in lanes [0, predTo−predFrom) of ls
	version := d.model.Params().Version()
	for ; n < valid; n++ {
		end := w0 + n // rows [0, end) are this lane's history; row end is the lane
		a, u := act[end], aud[end]
		d.observed++
		if end < q {
			results[n] = Result{Warmup: true}
			continue
		}
		var res Result
		// hidden is LSTM_I's final state for the lane's window when the
		// prediction below computed it: the drift check reads it instead of
		// running the recurrence again.
		var hidden []float64
		// Tier 0: the anchor bound may clear the segment as normal without
		// running the model at all.
		cleared := false
		if d.tier != nil {
			var tres ados.Result
			if tres, cleared = d.tier.Gate(a, u, d.tau, d.cfg.Omega); cleared {
				res = Result{Score: tres.REIA, Path: tres.Path.String()}
			}
		}
		if !cleared {
			if n >= predTo {
				lanes := 1
				if d.tier == nil {
					lanes = valid - n
				}
				if err = d.model.PredictWindows(ls, end, lanes); err != nil {
					break
				}
				predFrom, predTo = n, n+lanes
			}
			fhat, ahat := ls.Prediction(n - predFrom)
			hidden = ls.Hidden(n - predFrom)
			reia := core.NewScore(a, fhat, u, ahat, d.cfg.Omega).REIA
			res = Result{Anomaly: reia > d.tau, Score: reia, Exact: true, Path: ados.PathExact.String()}
			if d.tier != nil {
				d.tier.Commit(a, fhat, ahat, res.Anomaly)
			}
		}
		if res.Anomaly {
			d.detected++
		}
		// Dynamic maintenance (Fig. 5): buffer presumed-normal segments and
		// update on drift. The interaction level is the mean of the count
		// block, computed directly from the audience feature. The sample
		// views the set's rows; the updater copies what it buffers.
		if d.upd != nil {
			var upRes update.Result
			upRes, err = d.upd.ObserveHidden(core.Sample{
				ActionSeq:      act[end-q : end],
				AudienceSeq:    aud[end-q : end],
				ActionTarget:   a,
				AudienceTarget: u,
				Index:          d.observed - 1,
			}, interactionLevel(u), hidden)
			if err != nil {
				err = fmt.Errorf("aovlis: dynamic update: %w", err)
				break
			}
			res.Updated = upRes.Updated
			if v := d.model.Params().Version(); v != version {
				version, predTo = v, n+1
			}
		}
		results[n] = res
	}

	// Slide: copy the last q rows of the history the n consumed lanes leave
	// behind into the detector's window; lanes an error left unconsumed are
	// dropped with the set.
	end := w0 + n
	keep := min(end, q)
	if cap(d.actWin) < keep { // none yet, or a restored window of fewer rows
		d.actWin, d.audWin = flatRows(q, d.cfg.ActionDim), flatRows(q, d.cfg.AudienceDim)
	}
	d.actWin, d.audWin = d.actWin[:keep], d.audWin[:keep]
	for i := 0; i < keep; i++ {
		copy(d.actWin[i], act[end-keep+i])
		copy(d.audWin[i], aud[end-keep+i])
	}
	if err != nil {
		return n, err
	}
	return valid, dimErr
}

// flatRows returns n rows of dim values, views over one backing array.
func flatRows(n, dim int) [][]float64 {
	data := make([]float64, n*dim)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = data[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}

// ownRows copies src, rows of dim values, into rows the detector owns.
func ownRows(src [][]float64, dim int) [][]float64 {
	rows := flatRows(len(src), dim)
	for i := range src {
		copy(rows[i], src[i])
	}
	return rows
}

// interactionLevel approximates the normalised audience interaction of a
// feature vector as the mean of its leading (count) components; the count
// block is the first part of Φ_D's output by construction. It reads the
// first ⌊d₂/2⌋ components, where feature.InteractionLevel, which the
// datasets and experiments use, reads the count block: its K counts, 3K
// when the tuples are conjoined (d₂ = 3K + EmbedDim + 2). The two are the
// same bits only while 3K−2 ≤ EmbedDim ≤ 3K−1 (K−2 ≤ EmbedDim ≤ K−1
// unconjoined), which feature.DefaultAudienceConfig meets (K = 3,
// EmbedDim = 8: both read 9 components; TestInteractionLevelsAgree).
func interactionLevel(audienceFeat []float64) float64 {
	n := len(audienceFeat) / 2
	if n == 0 {
		return 0
	}
	var sum float64
	for _, v := range audienceFeat[:n] {
		sum += v
	}
	return sum / float64(n)
}

// Recalibrate rescores a (presumed mostly normal) feature series with the
// current model and moves τ to the given quantile of its REIA scores. Call
// it after incremental updates have shifted the model's score distribution,
// or when deploying to a stream with a different baseline.
func (d *Detector) Recalibrate(actions, audience [][]float64, quantile float64) error {
	samples, err := core.BuildSamples(actions, audience, d.cfg.SeqLen)
	if err != nil {
		return fmt.Errorf("aovlis: recalibrating: %w", err)
	}
	tau, err := calibrate(d.model, samples, quantile)
	if err != nil {
		return err
	}
	d.SetTau(tau)
	return nil
}

// calibrate scores samples with model and returns the quantile of their
// REIA scores: τ for Train (on the validation split) and Recalibrate.
func calibrate(model *core.Model, samples []core.Sample, quantile float64) (float64, error) {
	scores := make([]float64, 0, len(samples))
	for i := range samples {
		sc, err := model.Score(&samples[i])
		if err != nil {
			return 0, err
		}
		scores = append(scores, sc.REIA)
	}
	return core.CalibrateThreshold(scores, quantile), nil
}

// DetectSeries scores an entire feature series offline and returns one
// Result per segment (warm-up results for the first q segments).
func (d *Detector) DetectSeries(actions, audience [][]float64) ([]Result, error) {
	if len(actions) != len(audience) {
		return nil, fmt.Errorf("aovlis: series lengths %d vs %d", len(actions), len(audience))
	}
	out := make([]Result, 0, len(actions))
	for i := range actions {
		r, err := d.Observe(actions[i], audience[i])
		if err != nil {
			return nil, fmt.Errorf("aovlis: segment %d: %w", i, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Save writes the detector's configuration, threshold and model weights as
// a flat record (the version-4 state format, internal/snapshot/flat).
func (d *Detector) Save(w io.Writer) error {
	saved := &Detector{cfg: d.cfg, model: d.model, tau: d.tau} // what Load gives back
	return flat.Write(w, flat.KindSavedDetector, saved.sections("", false)...)
}

// Clone returns an independent detector with the same configuration,
// threshold and model weights but a fresh observation window, tier gate and
// updater — the way to monitor many channels from one trained model: train
// (or Load) once, Clone per channel. It behaves exactly like Load of this
// detector's Save, at a fraction of the cost: the weights are shared
// copy-on-write (core.Model.Clone), so a clone holds only its own state
// until an incremental update or a warm start gives it weights of its own,
// and the template and all its clones retrain on one list of trainers.
// Clone only reads the detector, so concurrent Clones of one template are
// fine, but it must not overlap a writer (see the concurrency contract).
func (d *Detector) Clone() (*Detector, error) {
	c := &Detector{cfg: d.cfg, model: d.model.Clone(), tau: d.tau}
	if err := c.initRuntime(nil); err != nil {
		return nil, fmt.Errorf("aovlis: cloning detector: %w", err)
	}
	return c, nil
}

// Load restores a detector written by Save: a flat record, or the gob
// stream of snapshot codec versions 1 to 3, told apart by the record's
// magic. The weights are read straight into the model's own arrays. The
// restored detector starts with an empty observation window and fresh
// updater state.
func Load(r io.Reader) (*Detector, error) {
	d, _, err := readRecord(r, flat.KindSavedDetector)
	return d, err
}

// Snapshot writes the detector's complete runtime state — model weights
// and optimiser moments, threshold, sliding windows, tier gate and pending
// update samples — as a flat record. A detector restored with
// RestoreDetector produces bit-identical Result sequences to this detector
// continuing uninterrupted, including when EnableUpdate is on.
//
// Snapshot reads every piece of mutable state, so it is writer activity
// under the detector's single-writer contract: never overlap it with
// Observe. Like Observe, it enforces the contract cheaply — a Snapshot
// racing an Observe fails with ErrConcurrentObserve instead of committing
// a torn state. The DetectorPool quiesces each channel at a segment
// boundary before snapshotting it, which is the supported way to snapshot
// live traffic.
func (d *Detector) Snapshot(w io.Writer) error { return d.SnapshotChannel(w, "") }

// SnapshotChannel is Snapshot for the detector of a channel: the record
// also names channel, which RestoreChannel returns. A pool checkpoint
// entry, a channel export and a failover upload are this record.
func (d *Detector) SnapshotChannel(w io.Writer, channel string) error {
	if !d.observing.CompareAndSwap(0, 1) {
		return ErrConcurrentObserve
	}
	defer d.observing.Store(0)
	return flat.Write(w, flat.KindDetector, d.sections(channel, true)...)
}

// RestoreDetector rebuilds a detector from a Snapshot stream. The restored
// detector resumes exactly where the snapshotted one stopped: same window
// contents, same threshold, same tier anchor, same buffered update
// samples — its future Observe results are bit-identical to an
// uninterrupted run over the same remaining stream.
func RestoreDetector(r io.Reader) (*Detector, error) {
	d, _, err := RestoreChannel(r)
	return d, err
}

// RestoreChannel is RestoreDetector that also returns the channel the
// stream names: a SnapshotChannel record's, the id of a channel export of
// codec versions 1 to 3, or "" for a stream that names none. It reads a
// flat record, or a gob stream of versions 1 to 3, told apart by the
// record's magic.
func RestoreChannel(r io.Reader) (*Detector, string, error) {
	return readRecord(r, flat.KindDetector)
}
