// Package baselines implements the comparison methods of the paper's
// evaluation (§VI-A): LTR, VEC, RTFM, plain LSTM and CLSTM-S, behind a
// common Detector interface so the experiment harness can sweep all six
// methods (the sixth being the full CLSTM) uniformly.
//
// Faithfulness notes (substitutions documented in DESIGN.md):
//
//   - LTR (Hasan et al., CVPR'16) learns temporal regularity with a
//     convolutional autoencoder; here it is a dense autoencoder over the
//     concatenated window of action features — same objective
//     (reconstruction of a temporal window), same scoring (reconstruction
//     error).
//   - VEC (Yu et al., MM'20) solves a cloze test: erase a patch/frame and
//     infer it from its context. Here the middle segment of a window is
//     erased and predicted from both past and future segments, so VEC uses
//     bidirectional temporal information, which is exactly why it
//     outperforms the unidirectional LSTM baseline in the paper.
//   - RTFM (Tian et al., ICCV'21) is weakly supervised (video-level
//     labels) and scores by learned temporal feature magnitude. Without
//     labels, we keep the feature-magnitude machinery in a one-class form:
//     an embedding is trained so normal segments have small magnitude
//     (deep-SVDD style) over a temporal context, and the anomaly score is
//     the top-k mean magnitude over the segment's neighbourhood.
//   - LSTM / CLSTM-S reuse the core model with CouplingNone (scored with
//     ω = 1, action features only) and CouplingOneWay respectively.
package baselines

import (
	"fmt"
	"math/rand"

	"aovlis/internal/ad"
	"aovlis/internal/core"
	"aovlis/internal/mat"
	"aovlis/internal/nn"
)

// Range is the half-open index interval of a score series that carries
// valid scores (methods need differing amounts of temporal context).
type Range struct {
	Lo, Hi int
}

// Contains reports whether i lies in the range.
func (r Range) Contains(i int) bool { return i >= r.Lo && i < r.Hi }

// FitConfig carries the shared training budget.
type FitConfig struct {
	Epochs int
	Seed   int64
}

// Detector is the common interface of all compared methods.
type Detector interface {
	// Name returns the paper's name for the method.
	Name() string
	// Fit trains on a (presumed normal) feature series.
	Fit(actions, audience [][]float64, cfg FitConfig) error
	// Score returns one anomaly score per segment of the series and the
	// index range over which scores are defined.
	Score(actions, audience [][]float64) ([]float64, Range, error)
}

// --- CLSTM-family wrappers ---

// clstmDetector wraps core.Model as a Detector.
type clstmDetector struct {
	name     string
	coupling core.Coupling
	omega    float64 // scoring ω; 1 = action features only
	seqLen   int
	hiddenI  int
	hiddenA  int
	lr       float64
	model    *core.Model
}

// NewCLSTM returns the paper's full model as a Detector.
func NewCLSTM(seqLen, hiddenI, hiddenA int, omega float64) Detector {
	return &clstmDetector{name: "CLSTM", coupling: core.CouplingFull, omega: omega,
		seqLen: seqLen, hiddenI: hiddenI, hiddenA: hiddenA, lr: 0.01}
}

// NewCLSTMS returns CLSTM-S (one-way coupling).
func NewCLSTMS(seqLen, hiddenI, hiddenA int, omega float64) Detector {
	return &clstmDetector{name: "CLSTM-S", coupling: core.CouplingOneWay, omega: omega,
		seqLen: seqLen, hiddenI: hiddenI, hiddenA: hiddenA, lr: 0.01}
}

// NewLSTM returns the plain LSTM baseline: uncoupled, scored on action
// features only (ω = 1).
func NewLSTM(seqLen, hiddenI, hiddenA int) Detector {
	return &clstmDetector{name: "LSTM", coupling: core.CouplingNone, omega: 1,
		seqLen: seqLen, hiddenI: hiddenI, hiddenA: hiddenA, lr: 0.01}
}

func (d *clstmDetector) Name() string { return d.name }

func (d *clstmDetector) Fit(actions, audience [][]float64, cfg FitConfig) error {
	if len(actions) == 0 {
		return fmt.Errorf("baselines: %s: empty series", d.name)
	}
	mcfg := core.DefaultConfig(len(actions[0]), len(audience[0]))
	mcfg.HiddenI, mcfg.HiddenA = d.hiddenI, d.hiddenA
	mcfg.SeqLen = d.seqLen
	mcfg.Omega = d.omega
	mcfg.Coupling = d.coupling
	mcfg.LearningRate = d.lr
	mcfg.Seed = cfg.Seed
	m, err := core.NewModel(mcfg)
	if err != nil {
		return err
	}
	samples, err := core.BuildSamples(actions, audience, d.seqLen)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for e := 0; e < cfg.Epochs; e++ {
		if _, err := m.TrainEpoch(samples, rng); err != nil {
			return err
		}
	}
	d.model = m
	return nil
}

func (d *clstmDetector) Score(actions, audience [][]float64) ([]float64, Range, error) {
	if d.model == nil {
		return nil, Range{}, fmt.Errorf("baselines: %s: Score before Fit", d.name)
	}
	samples, err := core.BuildSamples(actions, audience, d.seqLen)
	if err != nil {
		return nil, Range{}, err
	}
	scores := make([]float64, len(actions))
	for i := range samples {
		sc, err := d.model.Score(&samples[i])
		if err != nil {
			return nil, Range{}, err
		}
		scores[samples[i].Index] = sc.REIAOf(d.omega)
	}
	return scores, Range{Lo: d.seqLen, Hi: len(actions)}, nil
}

// adamStep hands the gradients of every parameter b bound to the
// optimiser, after Backward.
func adamStep(opt *nn.Adam, ps *nn.ParamSet, b *nn.Binding) {
	grads := make([]*mat.Matrix, len(ps.Names()))
	b.GradsFlatInto(grads)
	opt.StepFlat(ps, grads)
}

// --- LTR ---

// LTR is the autoencoder-over-temporal-window baseline.
type LTR struct {
	// Window is the number of consecutive segments reconstructed together.
	Window int
	// Bottleneck is the latent dimension.
	Bottleneck int
	// LR is the Adam learning rate.
	LR float64

	dim  int
	ps   *nn.ParamSet
	enc1 *nn.Dense
	enc2 *nn.Dense
	dec1 *nn.Dense
	dec2 *nn.Dense
	opt  *nn.Adam
}

// NewLTR builds the baseline with the given temporal window.
func NewLTR(window, bottleneck int) *LTR {
	return &LTR{Window: window, Bottleneck: bottleneck, LR: 0.01}
}

// Name implements Detector.
func (l *LTR) Name() string { return "LTR" }

func (l *LTR) window(actions [][]float64, t int) *mat.Matrix {
	w := mat.New(1, l.Window*l.dim)
	for j := 0; j < l.Window; j++ {
		copy(w.Data[j*l.dim:(j+1)*l.dim], actions[t-l.Window+1+j])
	}
	return w
}

// forward reconstructs one window; returns the reconstruction node.
func (l *LTR) forward(b *nn.Binding, in *ad.Node) *ad.Node {
	h := l.enc2.Apply(b, l.enc1.Apply(b, in))
	return l.dec2.Apply(b, l.dec1.Apply(b, h))
}

// Fit implements Detector: learn to reconstruct normal temporal windows.
func (l *LTR) Fit(actions, audience [][]float64, cfg FitConfig) error {
	if len(actions) < l.Window+1 {
		return fmt.Errorf("baselines: LTR needs more than %d segments, got %d", l.Window, len(actions))
	}
	l.dim = len(actions[0])
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := l.Window * l.dim
	hidden := in / 2
	if hidden < l.Bottleneck {
		hidden = l.Bottleneck
	}
	l.ps = nn.NewParamSet()
	l.enc1 = nn.NewDense(l.ps, "enc1", in, hidden, nn.ReLUAct, rng)
	l.enc2 = nn.NewDense(l.ps, "enc2", hidden, l.Bottleneck, nn.TanhAct, rng)
	l.dec1 = nn.NewDense(l.ps, "dec1", l.Bottleneck, hidden, nn.ReLUAct, rng)
	l.dec2 = nn.NewDense(l.ps, "dec2", hidden, in, nn.Linear, rng)
	l.opt = nn.NewAdam(l.LR)

	idx := make([]int, 0, len(actions)-l.Window+1)
	for t := l.Window - 1; t < len(actions); t++ {
		idx = append(idx, t)
	}
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, t := range idx {
			w := l.window(actions, t)
			tp := ad.NewTape()
			b := l.ps.Bind(tp)
			out := l.forward(b, tp.Const(w))
			loss := nn.MSELoss(tp, out, w)
			tp.Backward(loss)
			adamStep(l.opt, l.ps, b)
		}
	}
	return nil
}

// Score implements Detector: the reconstruction error of the window ending
// at each segment.
func (l *LTR) Score(actions, audience [][]float64) ([]float64, Range, error) {
	if l.ps == nil {
		return nil, Range{}, fmt.Errorf("baselines: LTR: Score before Fit")
	}
	scores := make([]float64, len(actions))
	for t := l.Window - 1; t < len(actions); t++ {
		w := l.window(actions, t)
		tp := ad.NewTape()
		b := l.ps.Bind(tp)
		out := l.forward(b, tp.Const(w))
		scores[t] = ad.Scalar(nn.MSELoss(tp, out, w))
	}
	return scores, Range{Lo: l.Window - 1, Hi: len(actions)}, nil
}

// --- VEC ---

// VEC is the cloze-test baseline: erase the middle segment of a window and
// infer it from the surrounding segments (bidirectional context).
type VEC struct {
	// Context is the number of segments on EACH side of the erased one.
	Context int
	// Hidden is the MLP hidden width.
	Hidden int
	// LR is the Adam learning rate.
	LR float64

	dim int
	ps  *nn.ParamSet
	h1  *nn.Dense
	h2  *nn.Dense
	opt *nn.Adam
}

// NewVEC builds the baseline with the given one-sided context length.
func NewVEC(context, hidden int) *VEC {
	return &VEC{Context: context, Hidden: hidden, LR: 0.01}
}

// Name implements Detector.
func (v *VEC) Name() string { return "VEC" }

// contextOf concatenates the 2·Context segments around t (t excluded).
func (v *VEC) contextOf(actions [][]float64, t int) *mat.Matrix {
	w := mat.New(1, 2*v.Context*v.dim)
	k := 0
	for off := -v.Context; off <= v.Context; off++ {
		if off == 0 {
			continue
		}
		copy(w.Data[k*v.dim:(k+1)*v.dim], actions[t+off])
		k++
	}
	return w
}

func (v *VEC) forward(b *nn.Binding, in *ad.Node) *ad.Node {
	return v.h2.Apply(b, v.h1.Apply(b, in))
}

// Fit implements Detector: learn to fill erased segments on normal data.
func (v *VEC) Fit(actions, audience [][]float64, cfg FitConfig) error {
	if len(actions) < 2*v.Context+1 {
		return fmt.Errorf("baselines: VEC needs more than %d segments, got %d", 2*v.Context, len(actions))
	}
	v.dim = len(actions[0])
	rng := rand.New(rand.NewSource(cfg.Seed))
	v.ps = nn.NewParamSet()
	v.h1 = nn.NewDense(v.ps, "h1", 2*v.Context*v.dim, v.Hidden, nn.ReLUAct, rng)
	v.h2 = nn.NewDense(v.ps, "h2", v.Hidden, v.dim, nn.SoftmaxAct, rng)
	v.opt = nn.NewAdam(v.LR)

	idx := make([]int, 0, len(actions))
	for t := v.Context; t < len(actions)-v.Context; t++ {
		idx = append(idx, t)
	}
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, t := range idx {
			tp := ad.NewTape()
			b := v.ps.Bind(tp)
			out := v.forward(b, tp.Const(v.contextOf(actions, t)))
			loss := nn.JSLoss(tp, mat.VectorOf(actions[t]), out)
			tp.Backward(loss)
			adamStep(v.opt, v.ps, b)
		}
	}
	return nil
}

// Score implements Detector: the cloze reconstruction error of each segment.
func (v *VEC) Score(actions, audience [][]float64) ([]float64, Range, error) {
	if v.ps == nil {
		return nil, Range{}, fmt.Errorf("baselines: VEC: Score before Fit")
	}
	scores := make([]float64, len(actions))
	for t := v.Context; t < len(actions)-v.Context; t++ {
		tp := ad.NewTape()
		b := v.ps.Bind(tp)
		out := v.forward(b, tp.Const(v.contextOf(actions, t)))
		scores[t] = core.JSDivergence(actions[t], out.Value.Data)
	}
	return scores, Range{Lo: v.Context, Hi: len(actions) - v.Context}, nil
}

// --- RTFM ---

// RTFM is the temporal-feature-magnitude baseline in one-class form.
// Without video-level labels the MIL margin objective is unavailable, so
// the "feature magnitude" is realised as the magnitude of the residual of
// a compact autoencoder trained on normal segments (a quantity that is
// small for normal data and grows with abnormality, like the learned
// magnitude in the original), pooled with the original's temporal top-k
// mean over the segment's neighbourhood.
type RTFM struct {
	// Embed is the bottleneck dimension of the magnitude network.
	Embed int
	// Neighborhood is the one-sided temporal context for top-k pooling.
	Neighborhood int
	// TopK is the number of largest magnitudes averaged.
	TopK int
	// LR is the Adam learning rate.
	LR float64

	dim int
	ps  *nn.ParamSet
	h1  *nn.Dense
	h2  *nn.Dense
	opt *nn.Adam
}

// NewRTFM builds the baseline.
func NewRTFM(embed, neighborhood, topK int) *RTFM {
	return &RTFM{Embed: embed, Neighborhood: neighborhood, TopK: topK, LR: 0.01}
}

// Name implements Detector.
func (r *RTFM) Name() string { return "RTFM" }

func (r *RTFM) forward(b *nn.Binding, in *ad.Node) *ad.Node {
	return r.h2.Apply(b, r.h1.Apply(b, in))
}

// Fit implements Detector: learn the normal feature manifold so the
// residual magnitude is small on normal segments.
func (r *RTFM) Fit(actions, audience [][]float64, cfg FitConfig) error {
	if len(actions) == 0 {
		return fmt.Errorf("baselines: RTFM: empty series")
	}
	r.dim = len(actions[0])
	rng := rand.New(rand.NewSource(cfg.Seed))
	r.ps = nn.NewParamSet()
	r.h1 = nn.NewDense(r.ps, "h1", r.dim, r.Embed, nn.TanhAct, rng)
	r.h2 = nn.NewDense(r.ps, "h2", r.Embed, r.dim, nn.SoftmaxAct, rng)
	r.opt = nn.NewAdam(r.LR)

	idx := make([]int, len(actions))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, t := range idx {
			tp := ad.NewTape()
			b := r.ps.Bind(tp)
			out := r.forward(b, tp.Const(mat.VectorOf(actions[t])))
			loss := nn.MSELoss(tp, out, mat.VectorOf(actions[t]))
			tp.Backward(loss)
			adamStep(r.opt, r.ps, b)
		}
	}
	return nil
}

// magnitude returns the residual feature magnitude ‖f − AE(f)‖₂.
func (r *RTFM) magnitude(f []float64) float64 {
	tp := ad.NewTape()
	b := r.ps.Bind(tp)
	out := r.forward(b, tp.Const(mat.VectorOf(f)))
	return mat.VecL2Distance(f, out.Value.Data)
}

// Score implements Detector: top-k mean embedded magnitude over the
// segment's temporal neighbourhood.
func (r *RTFM) Score(actions, audience [][]float64) ([]float64, Range, error) {
	if r.ps == nil {
		return nil, Range{}, fmt.Errorf("baselines: RTFM: Score before Fit")
	}
	mags := make([]float64, len(actions))
	for t := range actions {
		mags[t] = r.magnitude(actions[t])
	}
	scores := make([]float64, len(actions))
	for t := range actions {
		lo, hi := t-r.Neighborhood, t+r.Neighborhood
		if lo < 0 {
			lo = 0
		}
		if hi >= len(actions) {
			hi = len(actions) - 1
		}
		window := append([]float64(nil), mags[lo:hi+1]...)
		// top-k mean
		k := r.TopK
		if k > len(window) {
			k = len(window)
		}
		for i := 0; i < k; i++ {
			maxJ := i
			for j := i + 1; j < len(window); j++ {
				if window[j] > window[maxJ] {
					maxJ = j
				}
			}
			window[i], window[maxJ] = window[maxJ], window[i]
		}
		var sum float64
		for i := 0; i < k; i++ {
			sum += window[i]
		}
		scores[t] = sum / float64(k)
	}
	return scores, Range{Lo: 0, Hi: len(actions)}, nil
}

// Standard returns the six methods of Fig. 9(b)/Fig. 10 with a shared
// budget: LTR, VEC, LSTM, RTFM, CLSTM-S, CLSTM.
func Standard(seqLen, hiddenI, hiddenA int, omega float64) []Detector {
	return []Detector{
		NewLTR(seqLen/2+1, hiddenI),
		NewVEC(2, hiddenI*2),
		NewLSTM(seqLen, hiddenI, hiddenA),
		NewRTFM(hiddenI/2, 2, 2),
		NewCLSTMS(seqLen, hiddenI, hiddenA, omega),
		NewCLSTM(seqLen, hiddenI, hiddenA, omega),
	}
}
