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
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"

	"aovlis/internal/ados"
	"aovlis/internal/core"
	"aovlis/internal/snapshot"
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
// DetectSeries, Recalibrate, SetTau and Save all mutate internal state —
// the sliding window, the tier gate's anchor and (with EnableUpdate) the
// model weights themselves — and must be confined to one goroutine at a
// time. The read accessors (Tau, Observed, Detected, TierStats, Model)
// are safe only while no writer is active. Observe enforces the contract
// cheaply: a call that races with another Observe fails with
// ErrConcurrentObserve rather than silently corrupting the window. To score
// many streams concurrently, give each its own Detector and confine each to
// one goroutine — the DetectorPool in internal/serve does exactly this.
type Detector struct {
	cfg   Config
	model *core.Model
	tier  *ados.TierPlan
	upd   *update.Updater
	tau   float64
	// trainers is the CLSTM_new free list the updater retrains on, shared
	// with the template this detector was cloned from and its other clones.
	trainers *update.Trainers

	// actWin/audWin hold the sliding window of the last q segments in rows
	// the detector owns: every consumed segment is copied in, so a caller
	// may reuse its vectors once the call returns. Inside observeLanes they
	// also carry the lanes being consumed (see there). pinned[i] marks a row
	// a buffered update sample references; when it leaves the window it is
	// parked (parkedAct/parkedAud) until the updater's buffer empties.
	// freeAct/freeAud are rows no one reads, the next lanes' copies.
	actWin, audWin       [][]float64
	pinned               []bool
	parkedAct, parkedAud [][]float64
	freeAct, freeAud     [][]float64

	// Predict scratch, reused across calls: the per-lane samples and the
	// lane prediction buffers (headers over one flat backing each). At a
	// stable batch size the hot path allocates nothing.
	samples    []core.Sample
	fhat, ahat [][]float64

	// oneAct/oneAud/oneRes are Observe's one-lane batch.
	oneAct, oneAud [1][]float64
	oneRes         [1]Result

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
	valScores := make([]float64, 0, len(valid))
	for i := range valid {
		sc, err := model.Score(&valid[i])
		if err != nil {
			return nil, err
		}
		valScores = append(valScores, sc.REIA)
	}
	tau := core.CalibrateThreshold(valScores, cfg.TauQuantile)

	d := &Detector{cfg: cfg, model: model, tau: tau, trainers: new(update.Trainers)}
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
		upd, err := update.NewShared(d.model, d.cfg.Update, d.trainers)
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
// Predict or Hidden mutate per-step state: treat Model access as writer activity under the
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
	d.oneAct[0], d.oneAud[0] = actionFeat, audienceFeat
	_, err := d.observeLanes(d.oneAct[:], d.oneAud[:], d.oneRes[:])
	d.oneAct[0], d.oneAud[0] = nil, nil
	if err != nil {
		return Result{}, err
	}
	return d.oneRes[0], nil
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

// observeLanes is the segment pipeline, stated once: dims check → warm-up →
// tier gate → predict → score → tier.Commit → updater → slide. The caller
// holds the single-writer flag.
//
// The window is the tail of d.actWin/d.audWin. The lanes are copied onto it
// up front, into rows the detector owns, so lane i's history is the q rows
// ending just before it, and the slide is one copy-down at the end that
// keeps the last q rows of whatever was consumed. Everything downstream —
// the predictions, the score, the tier anchor, the updater's samples —
// reads those copies, never the caller's slices.
//
// Predictions are lazy and, where it is safe, batched: when a lane needs a
// prediction and has none, every remaining lane is predicted in one
// PredictBatchInto pass (a lane's bits don't depend on the lane count) —
// unless the tier gate is on, whose anchor each verdict may move; then that
// lane is predicted alone. The batch is
// optimistic about the weights: if a lane's update step retrains the model
// (the parameter version moves), the predictions of the lanes after it are
// discarded, and the next one that needs a prediction re-predicts with the
// new weights — exactly what a serial sequence would have used. Updates
// are drift-triggered and rare, so the replay cost is amortised away.
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
	for i := 0; i < valid; i++ {
		a, u := d.row()
		copy(a, acts[i])
		copy(u, auds[i])
		d.actWin = append(d.actWin, a)
		d.audWin = append(d.audWin, u)
		d.pinned = append(d.pinned, false)
	}

	var err error
	n := 0
	predFrom, predTo := 0, 0 // lanes [predFrom, predTo) hold predictions in fhat/ahat[lane-predFrom]
	version := d.model.Params().Version()
	for ; n < valid; n++ {
		end := w0 + n // rows [0, end) are this lane's history; row end is the lane
		a, u := d.actWin[end], d.audWin[end]
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
				if err = d.predict(n, lanes, w0); err != nil {
					break
				}
				predFrom, predTo = n, n+lanes
			}
			fhat, ahat := d.fhat[n-predFrom], d.ahat[n-predFrom]
			hidden = d.model.LaneHidden(n - predFrom)
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
		// views the detector's window, which slides in place: the updater
		// logs the headers of the samples it buffers, and the rows it then
		// shares are pinned so they are not recycled under it until its
		// buffer empties.
		if d.upd != nil {
			var upRes update.Result
			upRes, err = d.upd.ObserveHidden(core.Sample{
				ActionSeq:      d.actWin[end-q : end],
				AudienceSeq:    d.audWin[end-q : end],
				ActionTarget:   a,
				AudienceTarget: u,
				Index:          d.observed - 1,
			}, interactionLevel(u), hidden)
			if upRes.Buffered {
				for i := end - q; i <= end; i++ {
					d.pinned[i] = true
				}
			}
			if err != nil {
				err = fmt.Errorf("aovlis: dynamic update: %w", err)
				break
			}
			if upRes.Triggered {
				d.unpin()
			}
			res.Updated = upRes.Updated
			if v := d.model.Params().Version(); v != version {
				version, predTo = v, n+1
			}
		}
		results[n] = res
	}

	// Slide (allocation-free): keep the last q rows of the history the n
	// consumed lanes leave behind and recycle the others — older history and
	// lanes an error left unconsumed — or park them while a buffered update
	// sample still reads them.
	end := w0 + n
	keep := min(end, q)
	for i, a := range d.actWin {
		switch {
		case i >= end-keep && i < end: // stays in the window
		case d.pinned[i]:
			d.parkedAct = append(d.parkedAct, a)
			d.parkedAud = append(d.parkedAud, d.audWin[i])
		default:
			d.freeAct = append(d.freeAct, a)
			d.freeAud = append(d.freeAud, d.audWin[i])
		}
	}
	copy(d.actWin, d.actWin[end-keep:end])
	copy(d.audWin, d.audWin[end-keep:end])
	copy(d.pinned, d.pinned[end-keep:end])
	clear(d.actWin[keep:])
	clear(d.audWin[keep:])
	d.actWin, d.audWin, d.pinned = d.actWin[:keep], d.audWin[:keep], d.pinned[:keep]
	clear(d.samples)
	if err != nil {
		return n, err
	}
	return valid, dimErr
}

// unpin hands the rows the updater's buffer held back to the detector once
// the buffer has emptied: the parked rows to the free lists, the ones still
// in the window to the slide.
func (d *Detector) unpin() {
	d.freeAct = append(d.freeAct, d.parkedAct...)
	d.freeAud = append(d.freeAud, d.parkedAud...)
	clear(d.parkedAct)
	clear(d.parkedAud)
	d.parkedAct, d.parkedAud = d.parkedAct[:0], d.parkedAud[:0]
	clear(d.pinned)
}

// predict fills d.fhat/d.ahat[0:lanes] with the predictions of lanes
// [from, from+lanes), each from the q window rows ending just before it.
func (d *Detector) predict(from, lanes, w0 int) error {
	q := d.cfg.SeqLen
	d.samples = d.samples[:0]
	for i := from; i < from+lanes; i++ {
		end := w0 + i
		d.samples = append(d.samples, core.Sample{
			ActionSeq:      d.actWin[end-q : end],
			AudienceSeq:    d.audWin[end-q : end],
			ActionTarget:   d.actWin[end],
			AudienceTarget: d.audWin[end],
			Index:          d.observed - 1 + i - from,
		})
	}
	d.ensurePredBufs(lanes)
	return d.model.PredictBatchInto(d.samples, d.fhat[:lanes], d.ahat[:lanes])
}

// row returns an action/audience row pair for one consumed segment: a
// recycled pair, or a new one on a single backing array.
func (d *Detector) row() (a, u []float64) {
	if n := len(d.freeAct); n > 0 {
		a, u = d.freeAct[n-1], d.freeAud[n-1]
		d.freeAct[n-1], d.freeAud[n-1] = nil, nil
		d.freeAct, d.freeAud = d.freeAct[:n-1], d.freeAud[:n-1]
		return a, u
	}
	ad := d.cfg.ActionDim
	buf := make([]float64, ad+d.cfg.AudienceDim)
	return buf[:ad:ad], buf[ad:]
}

// ensurePredBufs sizes the lane prediction buffers (headers over one flat
// backing each) for n lanes, reallocating only on growth.
func (d *Detector) ensurePredBufs(n int) {
	if len(d.fhat) >= n {
		return
	}
	d.fhat = make([][]float64, n)
	d.ahat = make([][]float64, n)
	fdata := make([]float64, n*d.cfg.ActionDim)
	adata := make([]float64, n*d.cfg.AudienceDim)
	for i := 0; i < n; i++ {
		d.fhat[i] = fdata[i*d.cfg.ActionDim : (i+1)*d.cfg.ActionDim]
		d.ahat[i] = adata[i*d.cfg.AudienceDim : (i+1)*d.cfg.AudienceDim]
	}
}

// interactionLevel approximates the normalised audience interaction of a
// feature vector as the mean of its leading (count) components; the count
// block is the first part of Φ_D's output by construction.
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
	scores := make([]float64, 0, len(samples))
	for i := range samples {
		sc, err := d.model.Score(&samples[i])
		if err != nil {
			return err
		}
		scores = append(scores, sc.REIA)
	}
	d.SetTau(core.CalibrateThreshold(scores, quantile))
	return nil
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

// detectorWire is the gob envelope for Save/Load.
type detectorWire struct {
	Config Config
	Tau    float64
}

// Save serialises the detector (configuration, threshold, model weights).
func (d *Detector) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(detectorWire{Config: d.cfg, Tau: d.tau}); err != nil {
		return fmt.Errorf("aovlis: encoding detector: %w", err)
	}
	return d.model.Save(w)
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
	c := &Detector{cfg: d.cfg, model: d.model.Clone(), tau: d.tau, trainers: d.trainers}
	if err := c.initRuntime(nil); err != nil {
		return nil, fmt.Errorf("aovlis: cloning detector: %w", err)
	}
	return c, nil
}

// Load restores a detector written by Save. The restored detector starts
// with an empty observation window and fresh updater state.
func Load(r io.Reader) (*Detector, error) {
	// One shared buffered reader for the whole chain of gob decoders: gob
	// privately buffers (and over-reads) any reader that is not an
	// io.ByteReader, which would starve the model decoder that follows when
	// loading straight from a file.
	r = snapshot.Reader(r)
	var wire detectorWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("aovlis: decoding detector: %w", err)
	}
	model, err := core.LoadModel(r)
	if err != nil {
		return nil, err
	}
	d := &Detector{cfg: wire.Config, model: model, tau: wire.Tau, trainers: new(update.Trainers)}
	if err := d.initRuntime(nil); err != nil {
		return nil, err
	}
	return d, nil
}

// detectorSnapWire is the gob payload of a full-runtime detector snapshot,
// written after the versioned snapshot envelope. It captures everything
// Save leaves behind: the sliding q-length windows, the stream counters,
// the tier gate's anchor, and the dynamic updater's buffered samples and
// drift sketches. The model (with optimiser state) follows the payload in
// the stream. Version 1 payloads also carried the retired ADOS filter's
// configuration and counters; gob skips those fields on restore.
type detectorSnapWire struct {
	Config     Config
	Tau        float64
	ActWin     [][]float64
	AudWin     [][]float64
	Observed   int
	Detected   int
	HasTier    bool
	Tier       ados.TierState
	HasUpdater bool
	Updater    update.State
}

// Snapshot serialises the detector's complete runtime state — model
// weights and optimiser moments, threshold, sliding windows, tier gate
// and pending update samples — inside a versioned envelope. A
// detector restored with RestoreDetector produces bit-identical Result
// sequences to this detector continuing uninterrupted, including when
// EnableUpdate is on.
//
// Snapshot reads every piece of mutable state, so it is writer activity
// under the detector's single-writer contract: never overlap it with
// Observe. Like Observe, it enforces the contract cheaply — a Snapshot
// racing an Observe fails with ErrConcurrentObserve instead of committing
// a torn state. The DetectorPool quiesces each channel at a segment
// boundary before snapshotting it, which is the supported way to snapshot
// live traffic.
func (d *Detector) Snapshot(w io.Writer) error {
	if !d.observing.CompareAndSwap(0, 1) {
		return ErrConcurrentObserve
	}
	defer d.observing.Store(0)
	if err := snapshot.WriteHeader(w, snapshot.KindDetector); err != nil {
		return err
	}
	wire := detectorSnapWire{
		Config:   d.cfg,
		Tau:      d.tau,
		ActWin:   d.actWin,
		AudWin:   d.audWin,
		Observed: d.observed,
		Detected: d.detected,
	}
	if d.tier != nil {
		wire.HasTier = true
		wire.Tier = d.tier.State()
	}
	if d.upd != nil {
		wire.HasUpdater = true
		wire.Updater = d.upd.State()
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("aovlis: encoding detector snapshot: %w", err)
	}
	return d.model.SaveRuntime(w)
}

// RestoreDetector rebuilds a detector from a Snapshot stream. The restored
// detector resumes exactly where the snapshotted one stopped: same window
// contents, same threshold, same tier anchor, same buffered update
// samples — its future Observe results are bit-identical to an
// uninterrupted run over the same remaining stream.
func RestoreDetector(r io.Reader) (*Detector, error) {
	r = snapshot.Reader(r)
	if _, err := snapshot.ReadHeader(r, snapshot.KindDetector); err != nil {
		return nil, err
	}
	var wire detectorSnapWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("aovlis: decoding detector snapshot: %w", err)
	}
	if err := wire.validate(); err != nil {
		return nil, err
	}
	model, err := core.LoadModel(r)
	if err != nil {
		return nil, err
	}
	// The embedded model must be the one the detector configuration
	// implies: a mismatched pair would restore "successfully" and then fail
	// (or mis-score) on every Observe.
	if mc := wire.Config.modelConfig(); model.Config() != mc {
		return nil, fmt.Errorf("aovlis: snapshot model config %+v does not match detector config %+v", model.Config(), mc)
	}
	d := &Detector{
		cfg:      wire.Config,
		model:    model,
		tau:      wire.Tau,
		trainers: new(update.Trainers),
		actWin:   wire.ActWin,
		audWin:   wire.AudWin,
		pinned:   make([]bool, len(wire.ActWin)),
		observed: wire.Observed,
		detected: wire.Detected,
	}
	if wire.Config.Tiered {
		tier, err := ados.NewTierPlan(wire.Config.tierConfig(), wire.Config.ActionDim, wire.Config.AudienceDim)
		if err != nil {
			return nil, fmt.Errorf("aovlis: restoring tier gate: %w", err)
		}
		if err := tier.SetState(wire.Tier); err != nil {
			return nil, fmt.Errorf("aovlis: restoring tier gate: %w", err)
		}
		d.tier = tier
	}
	if wire.HasUpdater {
		upd, err := update.NewShared(model, d.cfg.Update, d.trainers)
		if err != nil {
			return nil, fmt.Errorf("aovlis: restoring updater: %w", err)
		}
		if err := upd.SetState(wire.Updater); err != nil {
			return nil, fmt.Errorf("aovlis: restoring updater: %w", err)
		}
		d.upd = upd
	}
	return d, nil
}

// validate rejects snapshot payloads whose runtime state cannot belong to
// the embedded configuration — corrupted or hand-edited streams should fail
// here, not as index panics mid-Observe.
func (w *detectorSnapWire) validate() error {
	if err := w.Config.Validate(); err != nil {
		return fmt.Errorf("aovlis: snapshot config: %w", err)
	}
	if len(w.ActWin) != len(w.AudWin) {
		return fmt.Errorf("aovlis: snapshot windows disagree: %d action vs %d audience rows", len(w.ActWin), len(w.AudWin))
	}
	if len(w.ActWin) > w.Config.SeqLen {
		return fmt.Errorf("aovlis: snapshot window has %d rows, config q is %d", len(w.ActWin), w.Config.SeqLen)
	}
	for i := range w.ActWin {
		if len(w.ActWin[i]) != w.Config.ActionDim || len(w.AudWin[i]) != w.Config.AudienceDim {
			return fmt.Errorf("aovlis: snapshot window row %d has dims %d/%d, config wants %d/%d",
				i, len(w.ActWin[i]), len(w.AudWin[i]), w.Config.ActionDim, w.Config.AudienceDim)
		}
	}
	if w.Observed < 0 || w.Detected < 0 {
		return fmt.Errorf("aovlis: snapshot counters negative (%d observed, %d detected)", w.Observed, w.Detected)
	}
	if w.HasTier != w.Config.Tiered {
		return fmt.Errorf("aovlis: snapshot tier state (%v) disagrees with Config.Tiered (%v)", w.HasTier, w.Config.Tiered)
	}
	if w.HasUpdater && !w.Config.EnableUpdate {
		return fmt.Errorf("aovlis: snapshot carries updater state but EnableUpdate is off")
	}
	if w.Config.EnableUpdate && !w.HasUpdater {
		// An uninterrupted EnableUpdate detector always owns an updater
		// (Train/initRuntime guarantee it); restoring without one would
		// silently never retrain again.
		return fmt.Errorf("aovlis: snapshot config enables updates but carries no updater state")
	}
	return nil
}
