// Package nn is the neural-network substrate for the AOVLIS reproduction.
//
// It provides named parameter sets, initialisers, an Adam optimiser
// (the optimiser the paper uses for CLSTM training), gradient clipping,
// dense layers, a generic LSTM cell whose gate context is supplied by the
// caller (which is what makes the coupled CLSTM of the paper expressible:
// the context of LSTM_I at time t is [h_{t-1}, g_{t-1}, f_t] and that of
// LSTM_A is [h_{t-1}, g_{t-1}, a_t]), and the three reconstruction losses
// compared in Table I of the paper (L2/MSE, KL, JS).
package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"

	"aovlis/internal/ad"
	"aovlis/internal/mat"
)

// ParamSet is an ordered collection of named trainable matrices. The set
// owns its matrix headers and updates the values in place through the
// optimiser; forward passes bind them to a fresh autodiff tape per step.
//
// The values themselves may be shared: Clone hands out a set whose matrices
// alias the source's Data, and from then on both sets treat those arrays as
// read-only. BumpVersion — the call every mutation makes before it writes —
// is where a sharing set takes its private copy, so a set that is only ever
// read never owns more than its headers.
type ParamSet struct {
	names []string
	mats  []*mat.Matrix // parallel to names
	vals  map[string]*mat.Matrix
	// version counts bulk mutations (optimiser steps, CopyFrom, Average,
	// Load); a reader holding results computed from the values compares it
	// to tell whether they are still current.
	version uint64
	// shared marks the matrices' Data as aliased by another set. Atomic
	// because Clone sets it on its (otherwise only read) source, and several
	// goroutines may clone one source at once.
	shared atomic.Bool
}

// Version returns the mutation counter. Every API that rewrites parameter
// values (Adam.Step, CopyFrom, Average, Load) increments it, so a consumer
// holding results computed from the parameters — the Detector's batch of
// predictions, when an update merges mid-batch — can tell they are stale
// with one integer compare.
func (ps *ParamSet) Version() uint64 { return ps.version }

// BumpVersion marks the parameters as mutated, and is the one place a set
// that shares its values (see Clone) detaches: it replaces every aliased
// Data array with a private copy first. Callers that write to a parameter's
// Data directly (outside the Adam/CopyFrom/Average/Load APIs) must call it
// BEFORE they write — on a sharing set a later call finds the write already
// in every other holder's weights.
func (ps *ParamSet) BumpVersion() {
	if ps.shared.Load() {
		for _, m := range ps.mats {
			m.Data = slices.Clone(m.Data)
		}
		ps.shared.Store(false)
	}
	ps.version++
}

// Shared reports whether the set's values are still aliased by another set
// (it has been cloned, or is a clone, and has not been written since).
func (ps *ParamSet) Shared() bool { return ps.shared.Load() }

// NewParamSet returns an empty parameter set.
func NewParamSet() *ParamSet {
	return &ParamSet{vals: make(map[string]*mat.Matrix)}
}

// Add registers a parameter matrix under name. Re-registering a name panics:
// model wiring bugs must fail loudly.
func (ps *ParamSet) Add(name string, m *mat.Matrix) *mat.Matrix {
	if _, ok := ps.vals[name]; ok {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	ps.names = append(ps.names, name)
	ps.mats = append(ps.mats, m)
	ps.vals[name] = m
	return m
}

// indexOf returns name's position in registration order, or −1.
func (ps *ParamSet) indexOf(name string) int { return slices.Index(ps.names, name) }

// Get returns the parameter registered under name, panicking if absent.
func (ps *ParamSet) Get(name string) *mat.Matrix {
	m, ok := ps.vals[name]
	if !ok {
		panic(fmt.Sprintf("nn: unknown parameter %q", name))
	}
	return m
}

// Has reports whether name is registered.
func (ps *ParamSet) Has(name string) bool {
	_, ok := ps.vals[name]
	return ok
}

// Names returns the parameter names in registration order.
func (ps *ParamSet) Names() []string {
	out := make([]string, len(ps.names))
	copy(out, ps.names)
	return out
}

// NumParams returns the total number of scalar parameters, reported the way
// the paper reports its model size (1,382,713 parameters for the full-scale
// CLSTM configuration).
func (ps *ParamSet) NumParams() int {
	n := 0
	for _, m := range ps.vals {
		n += len(m.Data)
	}
	return n
}

// Clone returns a copy-on-write copy of the set: its own matrix headers
// and version counter over the SAME Data arrays, which both sets hold
// read-only until one of them mutates — its BumpVersion then copies them
// out, and the other keeps the originals. A matrix header obtained from Get
// stays valid across that detach (its Data field is repointed), a slice of
// its Data does not. Clone only reads ps apart from the sharing mark, so
// concurrent Clones of one set are fine; overlapping a mutation of ps is not.
func (ps *ParamSet) Clone() *ParamSet {
	out := NewParamSet()
	out.version = ps.version
	for i, m := range ps.mats {
		out.Add(ps.names[i], mat.FromSlice(m.Rows, m.Cols, m.Data))
	}
	ps.shared.Store(true)
	out.shared.Store(true)
	return out
}

// Copy returns a deep copy of the set: its own headers, version counter and
// values. Unlike Clone it only reads ps — it sets no sharing mark — so ps
// goes on writing its values in place.
func (ps *ParamSet) Copy() *ParamSet {
	out := NewParamSet()
	out.version = ps.version
	for i, m := range ps.mats {
		out.Add(ps.names[i], mat.FromSlice(m.Rows, m.Cols, slices.Clone(m.Data)))
	}
	return out
}

// CopyFrom overwrites every parameter in ps with the values from src, which
// must contain an identically-shaped parameter for every name in ps.
func (ps *ParamSet) CopyFrom(src *ParamSet) error {
	// Bump before mutating: an error below may leave earlier parameters
	// already overwritten, and a reader comparing versions must never treat
	// partially-mutated weights as current.
	ps.BumpVersion()
	for _, n := range ps.names {
		sm, ok := src.vals[n]
		if !ok {
			return fmt.Errorf("nn: CopyFrom missing parameter %q", n)
		}
		dm := ps.vals[n]
		if !mat.SameShape(dm, sm) {
			return fmt.Errorf("nn: CopyFrom shape mismatch for %q: %dx%d vs %dx%d",
				n, dm.Rows, dm.Cols, sm.Rows, sm.Cols)
		}
		copy(dm.Data, sm.Data)
	}
	return nil
}

// Average overwrites ps in place with the weighted average
// w·ps + (1−w)·other. It is the parameter-merge primitive used by the
// dynamic-update algorithm (Fig. 5 line 12: merge(CLSTM_new, CLSTM_{t-1})).
func (ps *ParamSet) Average(other *ParamSet, w float64) error {
	ps.BumpVersion() // before mutating: see CopyFrom
	for _, n := range ps.names {
		om, ok := other.vals[n]
		if !ok {
			return fmt.Errorf("nn: Average missing parameter %q", n)
		}
		dm := ps.vals[n]
		if !mat.SameShape(dm, om) {
			return fmt.Errorf("nn: Average shape mismatch for %q", n)
		}
		for i := range dm.Data {
			dm.Data[i] = float64(w*dm.Data[i]) + float64((1-w)*om.Data[i])
		}
	}
	return nil
}

// Binding associates parameters of a ParamSet with autodiff Var nodes on
// one tape.
type Binding struct {
	ps    *ParamSet
	tape  *ad.Tape
	nodes map[string]*ad.Node
}

// Bind creates a Var node on tp for every parameter.
func (ps *ParamSet) Bind(tp *ad.Tape) *Binding {
	b := &Binding{ps: ps, tape: tp, nodes: make(map[string]*ad.Node, len(ps.names))}
	for i, n := range ps.names {
		b.nodes[n] = tp.Var(ps.mats[i])
	}
	return b
}

// Node returns the bound Var for name.
func (b *Binding) Node(name string) *ad.Node {
	n, ok := b.nodes[name]
	if !ok {
		panic(fmt.Sprintf("nn: binding has no parameter %q", name))
	}
	return n
}

// Tape returns the tape this binding records onto.
func (b *Binding) Tape() *ad.Tape { return b.tape }

// GradsFlatInto stores every parameter's gradient matrix at its registration
// index in dst (length = number of parameters in the set) — the hand-off
// Adam.StepFlat takes.
func (b *Binding) GradsFlatInto(dst []*mat.Matrix) {
	for i, n := range b.ps.names {
		dst[i] = b.nodes[n].Grad
	}
}

// --- Initialisers ---

// XavierInit fills m with the Glorot/Xavier uniform distribution for a layer
// with the given fan-in and fan-out.
func XavierInit(m *mat.Matrix, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		// Rounded: u*2 compiles to u+u, into which rand's own scaling
		// product would otherwise fuse.
		u := float64(rng.Float64())
		m.Data[i] = (u*2 - 1) * limit
	}
}

// ConstInit fills m with v.
func ConstInit(m *mat.Matrix, v float64) { m.Fill(v) }

// --- Optimiser ---

// Adam implements the Adam optimiser with bias correction, matching the
// paper's training setup (learning rate 0.001).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	// ClipNorm, when positive, rescales the global gradient norm to at most
	// this value before the update (standard LSTM training stabiliser).
	ClipNorm float64

	t int
	// Moment state: names, m and v are parallel. A step aligns them with
	// the stepped ParamSet's registration order (aligned records which set),
	// so the per-parameter work is three slice indexings instead of three
	// map lookups; m[i] == nil marks a parameter that has never had a
	// gradient. After Load they hold the snapshot's order until the next
	// step re-aligns them.
	aligned *ParamSet
	names   []string
	m, v    []*mat.Matrix
}

// NewAdam returns an Adam optimiser with the paper's defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5}
}

// StepFlat applies one Adam update to ps: grads[i] belongs to the i-th
// registered parameter of ps, nil entries are skipped (parameters unused in
// this step). Gradients are read, never written: the clipping factor is
// folded into the update kernel instead of rescaling them in place.
func (a *Adam) StepFlat(ps *ParamSet, grads []*mat.Matrix) {
	if len(grads) != len(ps.names) {
		panic(fmt.Sprintf("nn: StepFlat got %d gradients for %d parameters", len(grads), len(ps.names)))
	}
	ps.BumpVersion()
	a.align(ps)
	c := mat.AdamCoef{
		GradScale: 1,
		Beta1:     a.Beta1, OneMinusBeta1: 1 - a.Beta1,
		Beta2: a.Beta2, OneMinusBeta2: 1 - a.Beta2,
		LR: a.LR, Eps: a.Eps,
	}
	if a.ClipNorm > 0 {
		c.GradScale = a.clipScale(grads)
	}
	a.t++
	c.BiasCorr1 = 1 - math.Pow(a.Beta1, float64(a.t))
	c.BiasCorr2 = 1 - math.Pow(a.Beta2, float64(a.t))
	for i, g := range grads {
		if g == nil {
			continue
		}
		p := ps.mats[i]
		if a.m[i] == nil {
			a.m[i] = mat.New(p.Rows, p.Cols)
			a.v[i] = mat.New(p.Rows, p.Cols)
		}
		mat.AdamInto(p.Data, a.m[i].Data, a.v[i].Data, g.Data, &c)
	}
}

// align lays the moment state out in ps registration order, carrying over
// whatever moments it already holds (by name).
func (a *Adam) align(ps *ParamSet) {
	if a.aligned == ps && len(a.names) == len(ps.names) {
		return
	}
	m := make([]*mat.Matrix, len(ps.names))
	v := make([]*mat.Matrix, len(ps.names))
	for i, name := range a.names {
		if j := ps.indexOf(name); j >= 0 {
			m[j], v[j] = a.m[i], a.v[i]
		}
	}
	a.aligned, a.names, a.m, a.v = ps, ps.names, m, v
}

// Restart zeroes the moment estimates in place and the step count: the next
// step is bit for bit a fresh optimiser's, without reallocating the moments.
func (a *Adam) Restart() {
	a.t = 0
	for i := range a.m {
		if a.m[i] != nil {
			a.m[i].Zero()
			a.v[i].Zero()
		}
	}
}

// adamWire is the gob wire format for Adam state. Moment matrices are
// written in sorted-name order, like paramsWire, so the encoding is
// deterministic.
type adamWire struct {
	LR, Beta1, Beta2, Eps, ClipNorm float64
	T                               int
	Names                           []string
	Rows, Cols                      []int
	M, V                            [][]float64
}

// Save writes the optimiser's hyperparameters, step count and first/second
// moment estimates to w in a stable, self-describing format. Together with
// ParamSet.Save this captures everything needed to resume training with
// bit-identical updates.
func (a *Adam) Save(w io.Writer) error {
	wire := adamWire{LR: a.LR, Beta1: a.Beta1, Beta2: a.Beta2, Eps: a.Eps, ClipNorm: a.ClipNorm, T: a.t}
	order := make([]int, 0, len(a.names))
	for i := range a.names {
		if a.m[i] != nil {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(x, y int) bool { return a.names[order[x]] < a.names[order[y]] })
	for _, i := range order {
		m := a.m[i]
		wire.Names = append(wire.Names, a.names[i])
		wire.Rows = append(wire.Rows, m.Rows)
		wire.Cols = append(wire.Cols, m.Cols)
		wire.M = append(wire.M, append([]float64(nil), m.Data...))
		wire.V = append(wire.V, append([]float64(nil), a.v[i].Data...))
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("nn: encoding optimiser state: %w", err)
	}
	return nil
}

// Load replaces the optimiser's state with one previously written by Save.
func (a *Adam) Load(r io.Reader) error {
	var wire adamWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return fmt.Errorf("nn: decoding optimiser state: %w", err)
	}
	if len(wire.M) != len(wire.Names) || len(wire.V) != len(wire.Names) ||
		len(wire.Rows) != len(wire.Names) || len(wire.Cols) != len(wire.Names) {
		return fmt.Errorf("nn: optimiser state arrays disagree on parameter count")
	}
	a.LR, a.Beta1, a.Beta2, a.Eps, a.ClipNorm = wire.LR, wire.Beta1, wire.Beta2, wire.Eps, wire.ClipNorm
	a.t = wire.T
	a.aligned, a.names = nil, wire.Names
	a.m = make([]*mat.Matrix, len(wire.Names))
	a.v = make([]*mat.Matrix, len(wire.Names))
	for i, n := range wire.Names {
		rows, cols := wire.Rows[i], wire.Cols[i]
		if rows < 0 || cols < 0 || rows*cols != len(wire.M[i]) || rows*cols != len(wire.V[i]) {
			return fmt.Errorf("nn: optimiser moment %q has %d/%d values, shape %dx%d", n, len(wire.M[i]), len(wire.V[i]), rows, cols)
		}
		a.m[i] = mat.FromSlice(rows, cols, wire.M[i])
		a.v[i] = mat.FromSlice(rows, cols, wire.V[i])
	}
	return nil
}

// CheckShapes verifies that every loaded moment estimate belongs to a
// parameter of ps with the identical shape. Restore paths call it after
// Load: a snapshot whose optimiser state disagrees with the model must be
// rejected up front, not panic later inside Step. Parameters without
// moments are fine (they have simply never been stepped).
func (a *Adam) CheckShapes(ps *ParamSet) error {
	for i, n := range a.names {
		m := a.m[i]
		if m == nil {
			continue
		}
		if !ps.Has(n) {
			return fmt.Errorf("nn: optimiser moment %q has no matching model parameter", n)
		}
		p := ps.Get(n)
		if !mat.SameShape(p, m) {
			return fmt.Errorf("nn: optimiser moment %q is %dx%d, parameter is %dx%d",
				n, m.Rows, m.Cols, p.Rows, p.Cols)
		}
	}
	return nil
}

// clipScale returns the factor that rescales the gradients so their global
// norm is at most ClipNorm: 1 when it already is. The norm that decides is
// exact by definition: each parameter's squared norm summed from zero in
// ascending order (mat.Dot), the totals added in registration order — float
// addition is not associative, so any other order would change the factor,
// and therefore training, in the last bits.
//
// Clipping rarely fires, and when it cannot, that exact sum is not needed:
// the factor is 1 whatever its last bits are. So a cheap unordered sum of
// the same squares (mat.SumSquaresUnordered) is asked first. Over n ≤ 2³⁰
// squares both sums lie within γₙ·S + n·2⁻¹⁰⁷³ of the real sum S,
// γₙ < 2⁻²², so if the unordered sum is at most RN(RN(C²)·(1 − 2⁻²⁰)), with
// C = ClipNorm in [2⁻⁴⁰⁰, 2⁴⁰⁰], the exact total T is below C² (the margin
// exceeds both error terms with room to spare), √T ≤ C, and the exact path
// would return 1 too. Otherwise — clipping may fire, or a gradient holds a
// NaN or ±Inf, which makes the unordered sum fail the test — the exact
// norm is computed.
func (a *Adam) clipScale(grads []*mat.Matrix) float64 {
	c := a.ClipNorm
	if c >= 0x1p-400 && c <= 0x1p400 {
		var bound float64
		n := 0
		for _, g := range grads {
			if g != nil {
				bound += mat.SumSquaresUnordered(g.Data)
				n += len(g.Data)
			}
		}
		if n <= 1<<30 && bound <= c*c*(1-0x1p-20) {
			return 1
		}
	}
	var total float64
	for _, g := range grads {
		if g != nil {
			total += mat.Dot(g, g)
		}
	}
	norm := math.Sqrt(total)
	if norm <= c || norm == 0 {
		return 1
	}
	return c / norm
}

// --- Layers ---

// Activation selects the nonlinearity applied by a Dense layer.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	SigmoidAct
	TanhAct
	ReLUAct
	SoftmaxAct
)

// Dense is a fully-connected layer y = act(x·W + b).
type Dense struct {
	Name    string
	In, Out int
	Act     Activation

	// wName/bName cache the parameter keys so Apply does not concatenate
	// strings (and therefore allocate) on the hot path.
	wName, bName string
}

// NewDense registers the layer's parameters in ps and returns the layer.
func NewDense(ps *ParamSet, name string, in, out int, act Activation, rng *rand.Rand) *Dense {
	w := mat.New(in, out)
	XavierInit(w, in, out, rng)
	ps.Add(name+".W", w)
	ps.Add(name+".b", mat.New(1, out))
	return &Dense{Name: name, In: in, Out: out, Act: act, wName: name + ".W", bName: name + ".b"}
}

// Apply runs the layer on x using parameters bound in b.
func (d *Dense) Apply(b *Binding, x *ad.Node) *ad.Node {
	tp := b.Tape()
	z := tp.Add(tp.MatMul(x, b.Node(d.wName)), b.Node(d.bName))
	switch d.Act {
	case Linear:
		return z
	case SigmoidAct:
		return tp.Sigmoid(z)
	case TanhAct:
		return tp.Tanh(z)
	case ReLUAct:
		return tp.ReLU(z)
	case SoftmaxAct:
		return tp.Softmax(z)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", d.Act))
	}
}

// LSTMCell is an LSTM whose gate context vector is supplied by the caller.
// For a classic LSTM the context is [h_{t-1}, x_t]; for the paper's coupled
// CLSTM the context of each layer is [h_{t-1}, g_{t-1}, input_t] (Eq. 1-10),
// so the same cell implementation serves both by varying CtxDim.
type LSTMCell struct {
	Name   string
	CtxDim int // dimension of the concatenated gate context
	Hidden int

	// wNames/bNames cache the gate parameter keys (order i, f, c, o) so
	// Step does not concatenate strings on the hot path.
	wNames, bNames [4]string
}

// gateOrder fixes the registration and lookup order of the LSTM gates.
var gateOrder = [4]string{"i", "f", "c", "o"}

// NewLSTMCell registers the four gate weight matrices and biases in ps.
// The forget-gate bias is initialised to 1 (standard remember-by-default
// trick) and all weights use Xavier initialisation.
func NewLSTMCell(ps *ParamSet, name string, ctxDim, hidden int, rng *rand.Rand) *LSTMCell {
	c := &LSTMCell{Name: name, CtxDim: ctxDim, Hidden: hidden}
	c.cacheNames()
	for gi, gate := range gateOrder {
		w := mat.New(ctxDim, hidden)
		XavierInit(w, ctxDim, hidden, rng)
		ps.Add(c.wNames[gi], w)
		b := mat.New(1, hidden)
		if gate == "f" {
			ConstInit(b, 1)
		}
		ps.Add(c.bNames[gi], b)
	}
	return c
}

func (c *LSTMCell) cacheNames() {
	for gi, gate := range gateOrder {
		c.wNames[gi] = fmt.Sprintf("%s.W%s", c.Name, gate)
		c.bNames[gi] = fmt.Sprintf("%s.b%s", c.Name, gate)
	}
}

// Step performs one LSTM step (Eq. 1-4 / 6-9 of the paper):
//
//	IG = σ(ctx·Wi + bi)   FG = σ(ctx·Wf + bf)
//	Ĉ  = tanh(ctx·Wc+bc)  C  = IG⊙Ĉ + FG⊙C_{t-1}
//	OG = σ(ctx·Wo + bo)   h  = OG⊙tanh(C)
//
// ctx must have CtxDim columns; cPrev is the previous cell state.
func (c *LSTMCell) Step(b *Binding, ctx, cPrev *ad.Node) (h, cNext *ad.Node) {
	if ctx.Value.Cols != c.CtxDim {
		panic(fmt.Sprintf("nn: %s ctx has %d cols, want %d", c.Name, ctx.Value.Cols, c.CtxDim))
	}
	tp := b.Tape()
	pre := func(gi int) *ad.Node {
		return tp.Add(tp.MatMul(ctx, b.Node(c.wNames[gi])), b.Node(c.bNames[gi]))
	}
	ig := tp.Sigmoid(pre(0))
	fg := tp.Sigmoid(pre(1))
	cand := tp.Tanh(pre(2))
	og := tp.Sigmoid(pre(3))
	cNext = tp.Add(tp.Mul(ig, cand), tp.Mul(fg, cPrev))
	h = tp.Mul(og, tp.Tanh(cNext))
	return h, cNext
}

// ZeroState returns h0 and c0 constant nodes of the right shape.
func (c *LSTMCell) ZeroState(tp *ad.Tape) (h0, c0 *ad.Node) {
	return tp.Const(mat.New(1, c.Hidden)), tp.Const(mat.New(1, c.Hidden))
}

// --- Losses (autodiff-composable) ---

// MSELoss returns mean((pred-target)²); the L2 reconstruction loss used for
// LSTM_A (Eq. 13) and the CLSTM+L2 row of Table I.
func MSELoss(tp *ad.Tape, pred *ad.Node, target *mat.Matrix) *ad.Node {
	d := tp.Sub(pred, tp.Const(target))
	return tp.Mean(tp.Square(d))
}

// KLLoss returns KL(p ‖ q) where p is the (constant) true distribution and q
// the predicted distribution node: Σ p log p − Σ p log q.
func KLLoss(tp *ad.Tape, p *mat.Matrix, q *ad.Node) *ad.Node {
	pc := tp.Const(p)
	return tp.Sub(tp.Sum(tp.Mul(pc, tp.Log(pc))), tp.Sum(tp.Mul(pc, tp.Log(q))))
}

// JSLoss returns the Jensen-Shannon divergence JS(p ‖ q) =
// ½KL(p‖m) + ½KL(q‖m) with m = (p+q)/2 — the JSE loss the paper selects
// after the Table I comparison.
func JSLoss(tp *ad.Tape, p *mat.Matrix, q *ad.Node) *ad.Node {
	pc := tp.Const(p)
	m := tp.Scale(0.5, tp.Add(pc, q))
	klPM := tp.Sub(tp.Sum(tp.Mul(pc, tp.Log(pc))), tp.Sum(tp.Mul(pc, tp.Log(m))))
	klQM := tp.Sub(tp.Sum(tp.Mul(q, tp.Log(q))), tp.Sum(tp.Mul(q, tp.Log(m))))
	return tp.Scale(0.5, tp.Add(klPM, klQM))
}

// LossKind selects the reconstruction loss for the action-feature stream,
// matching the CLSTM+{L2,KL,JS} rows of Table I.
type LossKind int

// Loss kinds compared in Table I.
const (
	LossJS LossKind = iota
	LossKL
	LossL2
)

// String returns the paper's name for the loss.
func (k LossKind) String() string {
	switch k {
	case LossJS:
		return "JS"
	case LossKL:
		return "KL"
	case LossL2:
		return "L2"
	default:
		return fmt.Sprintf("LossKind(%d)", int(k))
	}
}

// ActionLoss applies the selected reconstruction loss between the true
// action feature p and predicted node q.
func ActionLoss(kind LossKind, tp *ad.Tape, p *mat.Matrix, q *ad.Node) *ad.Node {
	switch kind {
	case LossJS:
		return JSLoss(tp, p, q)
	case LossKL:
		return KLLoss(tp, p, q)
	case LossL2:
		return MSELoss(tp, q, p)
	default:
		panic(fmt.Sprintf("nn: unknown loss kind %d", kind))
	}
}

// --- Serialization ---

// paramsWire is the gob wire format for a ParamSet.
type paramsWire struct {
	Names []string
	Rows  []int
	Cols  []int
	Data  [][]float64
}

// Save writes the parameter set to w in a stable, self-describing format.
func (ps *ParamSet) Save(w io.Writer) error {
	wire := paramsWire{}
	names := make([]string, len(ps.names))
	copy(names, ps.names)
	sort.Strings(names)
	for _, n := range names {
		m := ps.vals[n]
		wire.Names = append(wire.Names, n)
		wire.Rows = append(wire.Rows, m.Rows)
		wire.Cols = append(wire.Cols, m.Cols)
		d := make([]float64, len(m.Data))
		copy(d, m.Data)
		wire.Data = append(wire.Data, d)
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("nn: encoding parameters: %w", err)
	}
	return nil
}

// Load reads parameters previously written by Save into ps. Every stored
// name must match an existing parameter of identical shape.
func (ps *ParamSet) Load(r io.Reader) error {
	var wire paramsWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return fmt.Errorf("nn: decoding parameters: %w", err)
	}
	if len(wire.Names) != len(ps.names) {
		return fmt.Errorf("nn: parameter count mismatch: stored %d, model %d", len(wire.Names), len(ps.names))
	}
	ps.BumpVersion() // before mutating: see CopyFrom
	for i, n := range wire.Names {
		m, ok := ps.vals[n]
		if !ok {
			return fmt.Errorf("nn: stored parameter %q not in model", n)
		}
		if m.Rows != wire.Rows[i] || m.Cols != wire.Cols[i] {
			return fmt.Errorf("nn: parameter %q shape mismatch: stored %dx%d, model %dx%d",
				n, wire.Rows[i], wire.Cols[i], m.Rows, m.Cols)
		}
		copy(m.Data, wire.Data[i])
	}
	return nil
}
