// Package experiments regenerates every table and figure of the paper's
// evaluation section (§VI) on the synthetic substrate. An experiment returns
// its numbers — labelled grids whose cells keep their values — and Render is
// the one place they become text, so a claim is asserted on a cell, not
// parsed out of a string. Absolute numbers differ from the paper's
// (different hardware, simulated data); the shapes — who wins, by roughly
// what factor, where the optima fall — are the reproduction targets
// (DESIGN.md §5 says which of them the tests pin).
package experiments

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"aovlis/internal/adg"
	"aovlis/internal/ados"
	"aovlis/internal/baselines"
	"aovlis/internal/core"
	"aovlis/internal/dataset"
	"aovlis/internal/evalx"
	"aovlis/internal/nn"
	"aovlis/internal/synth"
	"aovlis/internal/update"
)

// Scale fixes the experiment sizes. Paper-scale streams are hours long; the
// reproduction exposes two operating points so the full battery runs in
// minutes (Default) or seconds (Quick, used by the benchmarks).
type Scale struct {
	// TrainSec / TestSec are stream durations in seconds.
	TrainSec, TestSec int
	// Classes is d1.
	Classes int
	// SeqLen is q.
	SeqLen int
	// HiddenI / HiddenA are CLSTM hidden sizes.
	HiddenI, HiddenA int
	// Epochs is the training budget per model.
	Epochs int
	// Omega is the default ω.
	Omega float64
	// Seed fixes everything.
	Seed int64
}

// DefaultScale runs the full battery in a few minutes.
func DefaultScale() Scale {
	return Scale{
		TrainSec: 420, TestSec: 420,
		Classes: 48, SeqLen: 9,
		HiddenI: 24, HiddenA: 12,
		Epochs: 10, Omega: 0.8, Seed: 1,
	}
}

// QuickScale runs each experiment in seconds (benchmark mode).
func QuickScale() Scale {
	return Scale{
		TrainSec: 200, TestSec: 240,
		Classes: 24, SeqLen: 5,
		HiddenI: 12, HiddenA: 8,
		Epochs: 4, Omega: 0.8, Seed: 1,
	}
}

// Artifact is what an experiment returns: one or more titled grids.
type Artifact []*evalx.Table

// Render prints the artifact's grids one under the other.
func (a Artifact) Render() string {
	out := ""
	for _, t := range a {
		out += t.Render()
	}
	return out
}

// variant names a trained CLSTM by what distinguishes it from the others.
type variant struct {
	loss     nn.LossKind
	coupling core.Coupling
}

// served is the default CLSTM: JS loss, two-way coupling.
var served = variant{nn.LossJS, core.CouplingFull}

// trained is a CLSTM variant fitted on one dataset with its evaluation pass:
// the predictions (f̂, â), decomposed scores and ground-truth labels of the
// test samples, aligned with ds.TestSamples, and τ, the 0.95 quantile of
// its REIA scores over the validation samples.
type trained struct {
	model      *core.Model
	fHat, aHat [][]float64
	scores     []core.Score
	labels     []bool
	tau        float64
}

// auroc is the AUROC (%) of the fused REIA scores at ω.
func (t *trained) auroc(omega float64) (float64, error) {
	vals := make([]float64, len(t.scores))
	for i, s := range t.scores {
		vals[i] = s.REIAOf(omega)
	}
	a, err := evalx.AUROC(vals, t.labels)
	return a * 100, err
}

// Runner executes experiments. What several artifacts need of a dataset —
// a trained variant with its predictions and τ, the drifting test stream,
// the fitted baseline methods — is computed once per battery.
type Runner struct {
	Scale Scale

	datasets []*dataset.Dataset
	// By dataset name:
	variants map[string]map[variant]*trained
	drifts   map[string]*driftStream
	fitted   map[string][]methodRun
	// trainings counts the variants trained: each once per battery.
	trainings int
}

// NewRunner returns a Runner at the given scale.
func NewRunner(sc Scale) *Runner {
	return &Runner{
		Scale:    sc,
		variants: make(map[string]map[variant]*trained),
		drifts:   make(map[string]*driftStream),
		fitted:   make(map[string][]methodRun),
	}
}

// Datasets lazily builds the four presets. A test stream that drew no
// anomaly has no AUROC; that is reported here, with what to change.
func (r *Runner) Datasets() ([]*dataset.Dataset, error) {
	if r.datasets != nil {
		return r.datasets, nil
	}
	ds, err := dataset.BuildAll(r.Scale.TrainSec, r.Scale.TestSec, r.Scale.Classes, r.Scale.SeqLen, r.Scale.Seed)
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		if !d.HasAnomalies() {
			return nil, fmt.Errorf("experiments: the %s test stream drew no anomaly at seed %d with TestSec %d, so no AUROC is defined: lengthen the test stream or pick another seed",
				d.Name, r.Scale.Seed, r.Scale.TestSec)
		}
		r.variants[d.Name] = make(map[variant]*trained)
	}
	r.datasets = ds
	return ds, nil
}

// omegaFor returns the paper's tuned ω for a dataset (Fig. 9a: 0.8 for
// INF, 0.9 for SPE, TED and TWI).
func (r *Runner) omegaFor(name string) float64 {
	if name == "INF" {
		return 0.8
	}
	return 0.9
}

// modelConfig builds the CLSTM configuration for a dataset.
func (r *Runner) modelConfig(ds *dataset.Dataset, v variant) core.Config {
	cfg := core.DefaultConfig(len(ds.TrainActions[0]), len(ds.TrainAudience[0]))
	cfg.HiddenI, cfg.HiddenA = r.Scale.HiddenI, r.Scale.HiddenA
	cfg.SeqLen = r.Scale.SeqLen
	cfg.Omega = r.omegaFor(ds.Name)
	cfg.Loss = v.loss
	cfg.LearningRate = 0.01
	cfg.Coupling = v.coupling
	cfg.Seed = r.Scale.Seed
	return cfg
}

// fit returns the cached variant of ds; the first call trains it for
// the scale's budget, predicts the test samples and calibrates τ.
func (r *Runner) fit(ds *dataset.Dataset, v variant) (*trained, error) {
	if t, ok := r.variants[ds.Name][v]; ok {
		return t, nil
	}
	r.trainings++
	m, err := core.NewModel(r.modelConfig(ds, v))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.Scale.Seed))
	for e := 0; e < r.Scale.Epochs; e++ {
		if _, err := m.TrainEpoch(ds.TrainSamples, rng); err != nil {
			return nil, err
		}
	}
	omega := r.omegaFor(ds.Name)
	t := &trained{model: m, labels: ds.SampleLabels()}
	for i := range ds.TestSamples {
		s := &ds.TestSamples[i]
		fhat, ahat, err := m.Predict(s)
		if err != nil {
			return nil, err
		}
		t.fHat, t.aHat = append(t.fHat, fhat), append(t.aHat, ahat)
		t.scores = append(t.scores, core.NewScore(s.ActionTarget, fhat, s.AudienceTarget, ahat, omega))
	}
	valid := make([]float64, len(ds.ValidSamples))
	for i := range ds.ValidSamples {
		sc, err := m.Score(&ds.ValidSamples[i])
		if err != nil {
			return nil, err
		}
		valid[i] = sc.REIAOf(omega)
	}
	t.tau = core.CalibrateThreshold(valid, 0.95)
	r.variants[ds.Name][v] = t
	return t, nil
}

// Model returns the cached default CLSTM (JS loss, full coupling) for ds.
func (r *Runner) Model(ds *dataset.Dataset) (*core.Model, error) {
	t, err := r.fit(ds, served)
	if err != nil {
		return nil, err
	}
	return t.model, nil
}

// datasetGrid builds the shape most artifacts have: one row per label, one
// column per dataset, each cell computed by cell(dataset, row index).
func datasetGrid(ds []*dataset.Dataset, title, corner string, rows []string, cell func(d *dataset.Dataset, row int) (float64, error)) (Artifact, error) {
	headers := []string{corner}
	for _, d := range ds {
		headers = append(headers, d.Name)
	}
	tb := evalx.NewTable(title, headers...)
	for i, label := range rows {
		row := []interface{}{label}
		for _, d := range ds {
			v, err := cell(d, i)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		tb.AddRowf(row...)
	}
	return Artifact{tb}, nil
}

// variantGrid is the AUROC (%) of each trained variant on each dataset.
func (r *Runner) variantGrid(ds []*dataset.Dataset, title, corner string, variants []variant, label func(variant) string) (Artifact, error) {
	rows := make([]string, len(variants))
	for i, v := range variants {
		rows[i] = label(v)
	}
	return datasetGrid(ds, title, corner, rows, func(d *dataset.Dataset, i int) (float64, error) {
		t, err := r.fit(d, variants[i])
		if err != nil {
			return 0, err
		}
		return t.auroc(r.omegaFor(d.Name))
	})
}

// --- E1: Table I — AUROC under different loss functions ---

// table1 regenerates Table I: CLSTM trained with L2 / KL / JS losses.
func table1(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	return r.variantGrid(ds, "Table I: AUROC (%) under different loss functions", "Method",
		[]variant{{nn.LossL2, core.CouplingFull}, {nn.LossKL, core.CouplingFull}, served},
		func(v variant) string { return fmt.Sprintf("CLSTM+%s", v.loss) })
}

// --- E2: Table II — MFC vs number of subspaces ---

// table2 regenerates Table II: the filtering power statistic MFC for
// n = 15..20 over INF reconstruction pairs.
func table2(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	inf, err := r.fit(ds[0], served)
	if err != nil {
		return nil, err
	}
	pairs := make([][2][]float64, len(inf.fHat))
	for i := range pairs {
		pairs[i] = [2][]float64{ds[0].TestSamples[i].ActionTarget, inf.fHat[i]}
	}
	tb := evalx.NewTable("Table II: filtering power of bounds (MFC vs n)", "n", "MFC")
	for n := 15; n <= 20; n++ {
		mfc, err := adg.MFC(n, pairs)
		if err != nil {
			return nil, err
		}
		tb.AddRowf(n, evalx.Fmt("%.5f", mfc))
	}
	return Artifact{tb}, nil
}

// --- E3: Table III — incremental update vs re-training ---

// table3 regenerates Table III: AUROC of incremental updating vs full
// re-training at three update frequencies. The scaled-down analogue of
// "every 1/2/3 hours" is updating every 1/2/3 chunks of the drifting test
// stream (the second half of which carries genuinely new presenter states).
func table3(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	arms := []func(*dataset.Dataset, int) (float64, error){
		func(d *dataset.Dataset, every int) (float64, error) {
			return r.replayUpdating(d, every, update.MergeAverage)
		},
		r.replayRetraining,
	}
	tb := evalx.NewTable("Table III: effect of incremental model updates (AUROC %)",
		"Freq.", "INF(inc)", "SPE(inc)", "TED(inc)", "TWI(inc)", "INF(ret)", "SPE(ret)", "TED(ret)", "TWI(ret)")
	for _, every := range []int{1, 2, 3} {
		row := []interface{}{fmt.Sprintf("%du", every)}
		for _, arm := range arms {
			for _, d := range ds {
				auroc, err := arm(d, every)
				if err != nil {
					return nil, err
				}
				row = append(row, auroc)
			}
		}
		tb.AddRowf(row...)
	}
	return Artifact{tb}, nil
}

// driftStream is a dataset's test series followed by a drifted continuation
// (new presenter states), as samples with their labels and interaction
// levels.
type driftStream struct {
	samples  []core.Sample
	labels   []bool
	interact []float64
}

// drift returns what a replay starts from: d's cached drifting test stream
// and a fresh clone of the served model to maintain while it passes.
func (r *Runner) drift(d *dataset.Dataset) (*driftStream, *core.Model, error) {
	base, err := r.Model(d)
	if err != nil {
		return nil, nil, err
	}
	if st, ok := r.drifts[d.Name]; ok {
		return st, base.Clone(), nil
	}
	preset, err := synth.PresetByName(d.Name)
	if err != nil {
		return nil, nil, err
	}
	preset.States += 4 // genuinely new content: drift
	gen, err := synth.Generate(synth.Options{Preset: preset, DurationSec: r.Scale.TestSec, Seed: r.Scale.Seed + 7})
	if err != nil {
		return nil, nil, err
	}
	segs, err := gen.Segments()
	if err != nil {
		return nil, nil, err
	}
	actions, audience, err := d.Pipeline.Extract(segs, gen.Comments, r.Scale.TestSec)
	if err != nil {
		return nil, nil, err
	}
	// Concatenate original test features with drifted features.
	allActions := append(append([][]float64{}, d.TestActions...), actions...)
	allAudience := append(append([][]float64{}, d.TestAudience...), audience...)
	labels := append([]bool{}, d.TestLabels...)
	interact := append([]float64{}, d.TestInteraction...)
	for i := range segs {
		labels = append(labels, segs[i].Label)
		interact = append(interact, d.TestInteraction[i%len(d.TestInteraction)])
	}
	samples, err := core.BuildSamples(allActions, allAudience, r.Scale.SeqLen)
	if err != nil {
		return nil, nil, err
	}
	st := &driftStream{samples: samples}
	for i := range samples {
		st.labels = append(st.labels, labels[samples[i].Index])
		st.interact = append(st.interact, interact[samples[i].Index])
	}
	r.drifts[d.Name] = st
	return st, base.Clone(), nil
}

// chunk is the update cadence: `every` sixths of the stream, at least 5.
func (st *driftStream) chunk(every int) int {
	if n := len(st.samples) / 6 * every; n > 5 {
		return n
	}
	return 5
}

// replay scores the stream segment by segment with the model current
// returns, shows each scored segment and its interaction level to observe
// (which may change what current returns next), and returns the AUROC (%).
func (st *driftStream) replay(omega float64, current func() *core.Model, observe func(core.Sample, float64) error) (float64, error) {
	scores := make([]float64, len(st.samples))
	for i := range st.samples {
		sc, err := current().Score(&st.samples[i])
		if err != nil {
			return 0, err
		}
		scores[i] = sc.REIAOf(omega)
		if err := observe(st.samples[i], st.interact[i]); err != nil {
			return 0, err
		}
	}
	auroc, err := evalx.AUROC(scores, st.labels)
	return auroc * 100, err
}

// replayUpdating maintains the model with the dynamic updater: periodic
// maintenance (an update at every buffer fill) merged by mode.
func (r *Runner) replayUpdating(d *dataset.Dataset, every int, mode update.MergeMode) (float64, error) {
	st, m, err := r.drift(d)
	if err != nil {
		return 0, err
	}
	cfg := update.DefaultConfig()
	cfg.MaxBuffer = st.chunk(every)
	cfg.TrainEpochs = 2
	cfg.DriftThreshold = 1 // sim ≤ 1 always: every fill updates
	cfg.Mode = mode
	cfg.Seed = r.Scale.Seed
	upd, err := update.New(m, cfg)
	if err != nil {
		return 0, err
	}
	if err := upd.SeedHistory(d.TrainSamples); err != nil {
		return 0, err
	}
	return st.replay(r.omegaFor(d.Name), upd.Model, func(s core.Sample, level float64) error {
		_, err := upd.Observe(s, level)
		return err
	})
}

// replayRetraining retrains from scratch on all accumulated presumed-normal
// data at the same cadence.
func (r *Runner) replayRetraining(d *dataset.Dataset, every int) (float64, error) {
	st, m, err := r.drift(d)
	if err != nil {
		return 0, err
	}
	accumulated := append([]core.Sample{}, d.TrainSamples...)
	var buffer []core.Sample
	meanInteract, windowSum, windowN := 1.0, 0.0, 0
	return st.replay(r.omegaFor(d.Name), func() *core.Model { return m }, func(s core.Sample, level float64) error {
		windowSum += level
		windowN++
		if level < meanInteract {
			buffer = append(buffer, s)
		}
		if len(buffer) < st.chunk(every) {
			return nil
		}
		accumulated = append(accumulated, buffer...)
		buffer = buffer[:0]
		meanInteract = windowSum / float64(windowN)
		windowSum, windowN = 0, 0
		// Full retrain over everything seen so far.
		fresh, err := core.NewModel(m.Config())
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(r.Scale.Seed))
		for e := 0; e < 2; e++ {
			if _, err := fresh.TrainEpoch(accumulated, rng); err != nil {
				return err
			}
		}
		m = fresh
		return nil
	})
}

// --- E4: Table IV — case study ---

// methodNames are the six compared methods in baselines.Standard order.
var methodNames = []string{"LTR", "VEC", "LSTM", "RTFM", "CLSTM-S", "CLSTM"}

// methodRun is one fitted baseline method and its scores over the test
// stream, one per segment, meaningful inside valid.
type methodRun struct {
	det    baselines.Detector
	scores []float64
	valid  baselines.Range
}

// scored is the scored stretch of d's test stream and its labels.
func (m methodRun) scored(d *dataset.Dataset) ([]float64, []bool) {
	return m.scores[m.valid.Lo:m.valid.Hi], d.TestLabels[m.valid.Lo:m.valid.Hi]
}

// methods fits the six methods on d once and scores its test stream.
func (r *Runner) methods(d *dataset.Dataset) ([]methodRun, error) {
	if runs, ok := r.fitted[d.Name]; ok {
		return runs, nil
	}
	var runs []methodRun
	for _, det := range baselines.Standard(r.Scale.SeqLen, r.Scale.HiddenI, r.Scale.HiddenA, r.omegaFor(d.Name)) {
		if err := det.Fit(d.TrainActions, d.TrainAudience, baselines.FitConfig{Epochs: r.Scale.Epochs, Seed: r.Scale.Seed}); err != nil {
			return nil, err
		}
		scores, valid, err := det.Score(d.TestActions, d.TestAudience)
		if err != nil {
			return nil, err
		}
		runs = append(runs, methodRun{det, scores, valid})
	}
	r.fitted[d.Name] = runs
	return runs, nil
}

// table4 regenerates the case study: 15 INF test segments scored by all six
// methods with per-method calibrated thresholds.
func table4(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	inf := ds[0]
	labels := inf.SampleLabels()

	// Pick 15 sample indices mixing anomalies and normals, spread over the
	// stream like the paper's Sid 1-15.
	var anomIdx, normIdx []int
	for i, l := range labels {
		if l {
			anomIdx = append(anomIdx, i)
		} else {
			normIdx = append(normIdx, i)
		}
	}
	if len(anomIdx) == 0 {
		return nil, fmt.Errorf("experiments: INF test stream has no anomalous samples")
	}
	var chosen []int
	for i := 0; i < 8 && i < len(anomIdx); i++ {
		chosen = append(chosen, anomIdx[i*len(anomIdx)/8])
	}
	for i := 0; len(chosen) < 15 && i < len(normIdx); i += len(normIdx)/8 + 1 {
		chosen = append(chosen, normIdx[i])
	}
	truth := make([]bool, len(chosen))
	rows := make([][]interface{}, len(chosen))
	for k, si := range chosen {
		truth[k] = labels[si]
		rows[k] = []interface{}{k + 1}
	}

	methods, err := r.methods(inf)
	if err != nil {
		return nil, err
	}
	headers := []string{"Si"}
	var errs []string
	for _, m := range methods {
		// Calibrate the threshold on the training stream's own scores.
		trainScores, tvalid, err := m.det.Score(inf.TrainActions, inf.TrainAudience)
		if err != nil {
			return nil, err
		}
		tau := core.CalibrateThreshold(trainScores[tvalid.Lo:tvalid.Hi], 0.95)
		picked := make([]float64, len(chosen))
		for k, si := range chosen {
			if seg := inf.TestSamples[si].Index; m.valid.Contains(seg) {
				picked[k] = m.scores[seg]
			}
			rows[k] = append(rows[k], evalx.Fmt("%.3f", picked[k]), b2i(picked[k] > tau))
		}
		headers = append(headers, m.det.Name()+" score", "Lp")
		// Error counts per method, the paper's headline for this table.
		_, fp, _, fn := evalx.ConfusionAtThreshold(picked, truth, tau)
		errs = append(errs, fmt.Sprintf("%s=%d", m.det.Name(), fp+fn))
	}
	tb := evalx.NewTable("Table IV: anomaly detection results of video segment samples", append(headers, "Lg.")...)
	for k, row := range rows {
		tb.AddRowf(append(row, b2i(truth[k]))...)
	}
	tb.Note = "False detections: " + strings.Join(errs, ", ")
	return Artifact{tb}, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- E5: Fig. 8 — effect of epoch ---

// fig8 regenerates the Re-vs-epoch curves for train, validation and test
// (anomalous) sets on each dataset.
func fig8(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	var out Artifact
	epochs := r.Scale.Epochs * 3
	for _, d := range ds {
		m, err := core.NewModel(r.modelConfig(d, served))
		if err != nil {
			return nil, err
		}
		// Test curve uses the anomalous samples only, like the paper.
		var anomalous []core.Sample
		for i, l := range d.SampleLabels() {
			if l {
				anomalous = append(anomalous, d.TestSamples[i])
			}
		}
		rng := rand.New(rand.NewSource(r.Scale.Seed))
		tb := evalx.NewTable(fmt.Sprintf("Fig 8 (%s): Re vs epoch", d.Name), "epoch", "train", "valid", "test")
		for e := 0; e <= epochs; e++ {
			if e%3 == 0 {
				row := []interface{}{e}
				for _, set := range [][]core.Sample{d.TrainSamples, d.ValidSamples, anomalous} {
					loss := 0.0
					if len(set) > 0 {
						if loss, err = m.EvalLoss(set); err != nil {
							return nil, err
						}
					}
					row = append(row, evalx.Fmt("%.5f", loss))
				}
				tb.AddRowf(row...)
			}
			if e < epochs {
				if _, err := m.TrainEpoch(d.TrainSamples, rng); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, tb)
	}
	return out, nil
}

// --- E6: Fig. 9(a) — effect of ω ---

// fig9a regenerates the AUROC-vs-ω sweep. The model is trained once per
// dataset with the default objective; ω is swept in the REIA fusion, which
// is where the audience weight acts at detection time.
func fig9a(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	var out Artifact
	for _, d := range ds {
		t, err := r.fit(d, served)
		if err != nil {
			return nil, err
		}
		tb := evalx.NewTable(fmt.Sprintf("Fig 9(a) (%s): AUROC (%%) vs audience-interaction weight ω", d.Name), "ω", "AUROC")
		best, bestOmega := -1.0, 0.0
		for i := 0; i <= 10; i++ {
			w := float64(i) / 10
			auroc, err := t.auroc(w)
			if err != nil {
				return nil, err
			}
			tb.AddRowf(evalx.Fmt("%.1f", w), evalx.Fmt("%.1f", auroc))
			if auroc > best {
				best, bestOmega = auroc, w
			}
		}
		tb.Note = fmt.Sprintf("best ω=%.1f", bestOmega)
		out = append(out, tb)
	}
	return out, nil
}

// --- E7/E8: Fig. 9(b) and Fig. 10 — method comparison ---

// fig9b is the AUROC of the six methods on every dataset (Fig. 9b as
// numbers).
func fig9b(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	return datasetGrid(ds, "Fig 9(b): AUROC (%) comparison", "Method", methodNames, func(d *dataset.Dataset, i int) (float64, error) {
		methods, err := r.methods(d)
		if err != nil {
			return 0, err
		}
		auroc, err := evalx.AUROC(methods[i].scored(d))
		return auroc * 100, err
	})
}

// fig10 is the ROC curves as TPR samples on an FPR grid.
func fig10(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	grid := []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8}
	headers := []string{"method"}
	for _, f := range grid {
		headers = append(headers, fmt.Sprintf("fpr=%.2f", f))
	}
	var out Artifact
	for _, d := range ds {
		methods, err := r.methods(d)
		if err != nil {
			return nil, err
		}
		tb := evalx.NewTable(fmt.Sprintf("Fig 10 (%s): TPR at FPR grid", d.Name), headers...)
		for _, m := range methods {
			curve, err := evalx.ROC(m.scored(d))
			if err != nil {
				return nil, err
			}
			row := []interface{}{m.det.Name()}
			for _, f := range grid {
				row = append(row, evalx.Fmt("%.3f", evalx.TPRAtFPR(curve, f)))
			}
			tb.AddRowf(row...)
		}
		out = append(out, tb)
	}
	return out, nil
}

// --- E9/E10: Fig. 11(a)(b) — filtering power and strategy timing ---

// filterPass is one run of a dataset's cached test predictions through an
// ADOS filter: the filter with its stats, its verdict per sample and the
// wall time per segment.
type filterPass struct {
	*ados.Filter
	flagged  []bool
	usPerSeg float64
}

// runFilter pushes the served model's test predictions through a filter at
// the paper's operating point and the calibrated τ, as edited by edit.
func (r *Runner) runFilter(d *dataset.Dataset, edit func(*ados.Config)) (*filterPass, error) {
	t, err := r.fit(d, served)
	if err != nil {
		return nil, err
	}
	cfg := ados.DefaultConfig(t.tau, r.omegaFor(d.Name))
	edit(&cfg)
	fl, err := ados.NewFilter(cfg)
	if err != nil {
		return nil, err
	}
	flagged := make([]bool, len(d.TestSamples))
	start := time.Now()
	for i := range flagged {
		s := &d.TestSamples[i]
		res, err := fl.Decide(s.ActionTarget, t.fHat[i], s.AudienceTarget, t.aHat[i])
		if err != nil {
			return nil, err
		}
		flagged[i] = res.Anomaly
	}
	return &filterPass{fl, flagged, time.Since(start).Seconds() * 1e6 / float64(len(flagged))}, nil
}

// timeFilter is the per-segment decision time (µs) of runFilter, best of
// three to stabilise it.
func (r *Runner) timeFilter(d *dataset.Dataset, edit func(*ados.Config)) (float64, error) {
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		p, err := r.runFilter(d, edit)
		if err != nil {
			return 0, err
		}
		best = math.Min(best, p.usPerSeg)
	}
	return best, nil
}

// filterPower is the filtering power (%) of one runFilter pass.
func (r *Runner) filterPower(d *dataset.Dataset, edit func(*ados.Config)) (float64, error) {
	p, err := r.runFilter(d, edit)
	if err != nil {
		return 0, err
	}
	return p.FilteringPower() * 100, nil
}

// powerStrategies are the bound configurations compared in Fig. 11(a),
// timedStrategies the optimisation strategies timed in Fig. 11(b).
var (
	powerStrategies = []ados.Strategy{
		ados.StrategyREGOnly, ados.StrategyJSminOnly, ados.StrategyJSmaxOnly,
		ados.StrategyL1, ados.StrategyAllBounds, ados.StrategyADOS,
	}
	timedStrategies = []ados.Strategy{ados.StrategyL1, ados.StrategyAllBounds, ados.StrategyNoBound, ados.StrategyADOS}
)

// strategyGrid is measure(dataset, strategy) for each strategy and dataset.
func strategyGrid(ds []*dataset.Dataset, title, corner string, strategies []ados.Strategy, measure func(*dataset.Dataset, func(*ados.Config)) (float64, error)) (Artifact, error) {
	rows := make([]string, len(strategies))
	for i, s := range strategies {
		rows[i] = s.String()
	}
	return datasetGrid(ds, title, corner, rows, func(d *dataset.Dataset, i int) (float64, error) {
		return measure(d, func(c *ados.Config) { c.Strategy = strategies[i] })
	})
}

// fig11a is the filtering power of each bound configuration.
func fig11a(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	return strategyGrid(ds, "Fig 11(a): filtering power (%)", "Bound", powerStrategies, r.filterPower)
}

// fig11b is the per-segment decision time of the optimisation strategies.
func fig11b(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	return strategyGrid(ds, "Fig 11(b): per-segment decision time (µs)", "Strategy", timedStrategies, r.timeFilter)
}

// --- E11: Fig. 11(c) — efficiency comparison across methods ---

// fig11c times the per-segment scoring cost of each method (detection
// only; the models are the fitted ones of Fig. 9b), plus CLSTM-ADOS: the
// served model's prediction followed by the bound-filtered decision.
func fig11c(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	rows := []string{"LTR", "VEC", "RTFM", "CLSTM", "CLSTM-ADOS"}
	return datasetGrid(ds, "Fig 11(c): per-segment detection time (ms)", "Method", rows, func(d *dataset.Dataset, i int) (float64, error) {
		methods, err := r.methods(d)
		if err != nil {
			return 0, err
		}
		for _, m := range methods {
			if m.det.Name() == rows[i] {
				start := time.Now()
				_, _, err := m.det.Score(d.TestActions, d.TestAudience)
				return time.Since(start).Seconds() * 1e3 / float64(len(d.TestActions)), err
			}
		}
		t, err := r.fit(d, served)
		if err != nil {
			return 0, err
		}
		fl, err := ados.NewFilter(ados.DefaultConfig(t.tau, r.omegaFor(d.Name)))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := range d.TestSamples {
			s := &d.TestSamples[i]
			fhat, ahat, err := t.model.Predict(s)
			if err != nil {
				return 0, err
			}
			if _, err := fl.Decide(s.ActionTarget, fhat, s.AudienceTarget, ahat); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds() * 1e3 / float64(len(d.TestSamples)), nil
	})
}

// --- E12-E14: Fig. 12 — threshold sweeps ---

// sweep is a Fig. 12 panel: the ADOS filter timed on every dataset for each
// value of one of its parameters, which set writes into the configuration.
func sweep(param string, values []float64, set func(*ados.Config, float64)) func(*Runner, []*dataset.Dataset) (Artifact, error) {
	return func(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
		rows := make([]string, len(values))
		for i, v := range values {
			rows[i] = fmt.Sprintf("%.2f", v)
		}
		title := fmt.Sprintf("Fig 12 (%s sweep): per-segment detection time (µs)", param)
		return datasetGrid(ds, title, param, rows, func(d *dataset.Dataset, i int) (float64, error) {
			return r.timeFilter(d, func(c *ados.Config) { set(c, values[i]) })
		})
	}
}

// --- E15: update vs retrain wall-clock ---

// updatePairs is how many incremental/retrain pairs updateCost times per
// dataset, alternated so that a loaded host slows both sides alike.
const updatePairs = 5

// updateCost measures the cost of one incremental update versus one full
// retrain on each dataset (§VI-C6; the paper reports up to 403×). The
// duration cells carry the median pair's milliseconds and the speed-up
// cell the median of the pairs' ratios; the step cells count the training
// steps (one per sample per epoch) each side runs, which no host's load
// can change.
func updateCost(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	tb := evalx.NewTable(fmt.Sprintf("Update cost: incremental vs full retrain (wall clock, median of %d pairs)", updatePairs),
		"Dataset", "incremental", "retrain", "speedup", "inc steps", "retrain steps")
	for _, d := range ds {
		base, err := r.Model(d)
		if err != nil {
			return nil, err
		}
		// Incremental: train a warm-started clone on one buffer of recent
		// normal segments and merge. Retrain: full training over everything
		// from scratch.
		bufN := len(d.TestSamples) / 4
		if bufN < 4 {
			bufN = 4
		}
		buffer := d.TestSamples[:bufN]
		all := append(append([]core.Sample{}, d.TrainSamples...), buffer...)
		var inc, retrain [updatePairs]time.Duration
		var speedup [updatePairs]float64
		for i := range inc {
			rng := rand.New(rand.NewSource(r.Scale.Seed))
			start := time.Now()
			fresh := base.Clone()
			for e := 0; e < 2; e++ {
				if _, err := fresh.TrainEpoch(buffer, rng); err != nil {
					return nil, err
				}
			}
			if err := fresh.Merge(base, 0.5); err != nil {
				return nil, err
			}
			inc[i] = time.Since(start)

			start = time.Now()
			scratch, err := core.NewModel(base.Config())
			if err != nil {
				return nil, err
			}
			for e := 0; e < r.Scale.Epochs; e++ {
				if _, err := scratch.TrainEpoch(all, rng); err != nil {
					return nil, err
				}
			}
			retrain[i] = time.Since(start)
			speedup[i] = retrain[i].Seconds() / inc[i].Seconds()
		}
		tb.AddRowf(d.Name, msCell(median(inc[:])), msCell(median(retrain[:])),
			evalx.Fmt("%.1fx", median(speedup[:])), 2*bufN, r.Scale.Epochs*len(all))
	}
	return Artifact{tb}, nil
}

// median sorts xs and returns its middle element (xs has odd length).
func median[T cmp.Ordered](xs []T) T {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

func msCell(d time.Duration) evalx.Cell {
	return evalx.Cell{Value: d.Seconds() * 1e3, Text: d.Round(time.Millisecond).String()}
}

// --- Ablations (DESIGN.md §5) ---

// ablationCoupling compares none/one-way/two-way coupling under identical
// budgets on every dataset.
func ablationCoupling(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	return r.variantGrid(ds, "Ablation: coupling direction (AUROC %)", "Coupling",
		[]variant{{nn.LossJS, core.CouplingNone}, {nn.LossJS, core.CouplingOneWay}, served},
		func(v variant) string { return v.coupling.String() })
}

// ablationMerge compares the merge strategies of the dynamic update.
func ablationMerge(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	modes := []update.MergeMode{update.MergeAverage, update.MergeReplace}
	return datasetGrid(ds, "Ablation: dynamic-update merge strategy (AUROC %)", "Merge", []string{"average(w=0.5)", "replace"},
		func(d *dataset.Dataset, i int) (float64, error) { return r.replayUpdating(d, 1, modes[i]) })
}

// ablationADGGroups sweeps the partition size n and reports filtering power.
func ablationADGGroups(r *Runner, ds []*dataset.Dataset) (Artifact, error) {
	tb := evalx.NewTable("Ablation: ADG partition size (INF)", "n", "filtering power (%)")
	for _, n := range []int{8, 12, 16, 20, 24} {
		power, err := r.filterPower(ds[0], func(c *ados.Config) {
			c.Strategy = ados.StrategyREGOnly
			c.PartitionN = n
		})
		if err != nil {
			return nil, err
		}
		tb.AddRowf(n, power)
	}
	return Artifact{tb}, nil
}

// Experiment is one registered artifact: its id for the CLI, what it
// regenerates, and the function that computes it from the datasets.
type Experiment struct {
	ID   string
	Desc string
	run  func(*Runner, []*dataset.Dataset) (Artifact, error)
}

// Run computes the artifact on r's datasets, sharing what r already holds.
func (e Experiment) Run(r *Runner) (Artifact, error) {
	ds, err := r.Datasets()
	if err != nil {
		return nil, err
	}
	return e.run(r, ds)
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: AUROC under different loss functions", table1},
		{"table2", "Table II: MFC vs subspace count n", table2},
		{"table3", "Table III: incremental update vs re-training", table3},
		{"table4", "Table IV: case study on 15 segments", table4},
		{"fig8", "Fig 8: Re vs training epoch", fig8},
		{"fig9a", "Fig 9(a): AUROC vs ω", fig9a},
		{"fig9b", "Fig 9(b): AUROC comparison across methods", fig9b},
		{"fig10", "Fig 10: ROC curves", fig10},
		{"fig11a", "Fig 11(a): filtering power of bounds", fig11a},
		{"fig11b", "Fig 11(b): optimisation strategy timing", fig11b},
		{"fig11c", "Fig 11(c): method efficiency comparison", fig11c},
		{"fig12a", "Fig 12(a): effect of T1", sweep("T1", []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0},
			func(c *ados.Config, v float64) { c.T1 = v })},
		{"fig12b", "Fig 12(b): effect of T2", sweep("T2", []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
			func(c *ados.Config, v float64) { c.T2 = v })},
		{"fig12c", "Fig 12(c): effect of Nsg", sweep("Nsg", []float64{0, 2, 4, 6, 8, 10, 12, 14},
			func(c *ados.Config, v float64) { c.Nsg = int(v) })},
		{"updatecost", "§VI-C6: update vs retrain wall clock", updateCost},
		{"ablation-coupling", "Ablation: coupling direction", ablationCoupling},
		{"ablation-merge", "Ablation: merge strategy", ablationMerge},
		{"ablation-adg", "Ablation: ADG partition size", ablationADGGroups},
	}
}
