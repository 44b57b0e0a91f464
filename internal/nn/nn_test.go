package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"aovlis/internal/ad"
	"aovlis/internal/mat"
)

func TestParamSetAddGet(t *testing.T) {
	ps := NewParamSet()
	m := ps.Add("w", mat.New(2, 3))
	if ps.Get("w") != m {
		t.Fatal("Get returned different matrix")
	}
	if !ps.Has("w") || ps.Has("nope") {
		t.Fatal("Has wrong")
	}
	if ps.NumParams() != 6 {
		t.Fatalf("NumParams = %d", ps.NumParams())
	}
	if got := ps.Names(); len(got) != 1 || got[0] != "w" {
		t.Fatalf("Names = %v", got)
	}
}

func TestParamSetDuplicatePanics(t *testing.T) {
	ps := NewParamSet()
	ps.Add("w", mat.New(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	ps.Add("w", mat.New(1, 1))
}

// TestParamSetCloneIsDeep pins the copy-on-write contract: a clone aliases
// the source's values until either side writes through the BumpVersion seam,
// and a write on one side never shows on the other.
func TestParamSetCloneIsDeep(t *testing.T) {
	ps := NewParamSet()
	ps.Add("w", mat.FromSlice(1, 2, []float64{1, 2}))
	c := ps.Clone()
	if !ps.Shared() || !c.Shared() || &c.Get("w").Data[0] != &ps.Get("w").Data[0] {
		t.Fatal("Clone copied the values eagerly")
	}
	if c.Get("w") == ps.Get("w") {
		t.Fatal("Clone shares matrix headers")
	}
	w := c.Get("w") // a header stays valid across the detach
	c.BumpVersion()
	w.Data[0] = 99
	if ps.Get("w").Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
	if c.Shared() || c.Version() != ps.Version()+1 {
		t.Fatalf("after its write the clone is shared=%v at version %d (source %d)", c.Shared(), c.Version(), ps.Version())
	}
	// The source still believes it is shared, so its own write copies too
	// and cannot reach a second clone taken in between.
	c2 := ps.Clone()
	ps.BumpVersion()
	ps.Get("w").Data[1] = -7
	if c2.Get("w").Data[1] != 2 || c.Get("w").Data[1] != 2 {
		t.Fatal("a write to the source reached its clones")
	}
	// Every mutating API goes through the seam.
	other := NewParamSet()
	other.Add("w", mat.FromSlice(1, 2, []float64{5, 5}))
	for name, mutate := range map[string]func(*ParamSet){
		"CopyFrom": func(p *ParamSet) { _ = p.CopyFrom(other) },
		"Average":  func(p *ParamSet) { _ = p.Average(other, 0.5) },
		"StepFlat": func(p *ParamSet) { NewAdam(0.1).StepFlat(p, []*mat.Matrix{mat.FromSlice(1, 2, []float64{1, 1})}) },
	} {
		src := NewParamSet()
		src.Add("w", mat.FromSlice(1, 2, []float64{1, 2}))
		cl := src.Clone()
		mutate(cl)
		if got := src.Get("w").Data; got[0] != 1 || got[1] != 2 {
			t.Fatalf("%s on a clone wrote through to the source: %v", name, got)
		}
		if got := cl.Get("w").Data; got[0] == 1 && got[1] == 2 {
			t.Fatalf("%s on a clone changed nothing", name)
		}
	}
}

func TestParamSetAverage(t *testing.T) {
	a := NewParamSet()
	a.Add("w", mat.FromSlice(1, 2, []float64{0, 10}))
	b := NewParamSet()
	b.Add("w", mat.FromSlice(1, 2, []float64{10, 0}))
	if err := a.Average(b, 0.25); err != nil {
		t.Fatal(err)
	}
	if a.Get("w").Data[0] != 7.5 || a.Get("w").Data[1] != 2.5 {
		t.Fatalf("Average = %v", a.Get("w").Data)
	}
}

func TestParamSetAverageShapeMismatch(t *testing.T) {
	a := NewParamSet()
	a.Add("w", mat.New(1, 2))
	b := NewParamSet()
	b.Add("w", mat.New(2, 2))
	if err := a.Average(b, 0.5); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestCopyFrom(t *testing.T) {
	a := NewParamSet()
	a.Add("w", mat.New(1, 2))
	b := NewParamSet()
	b.Add("w", mat.FromSlice(1, 2, []float64{3, 4}))
	if err := a.CopyFrom(b); err != nil {
		t.Fatal(err)
	}
	if a.Get("w").Data[1] != 4 {
		t.Fatal("CopyFrom did not copy")
	}
	c := NewParamSet()
	if err := a.CopyFrom(c); err == nil {
		t.Fatal("expected missing-parameter error")
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := mat.New(10, 10)
	XavierInit(m, 10, 10, rng)
	limit := math.Sqrt(6.0 / 20.0)
	var nonzero int
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 90 {
		t.Fatal("Xavier produced mostly zeros")
	}
}

// Adam on a convex quadratic must approach the minimum.
func TestAdamConvergesOnQuadratic(t *testing.T) {
	ps := NewParamSet()
	w := ps.Add("w", mat.FromSlice(1, 2, []float64{5, -3}))
	opt := NewAdam(0.1)
	target := []float64{1, 2}
	for step := 0; step < 500; step++ {
		g := mat.New(1, 2)
		for i := range g.Data {
			g.Data[i] = 2 * (w.Data[i] - target[i])
		}
		opt.StepFlat(ps, []*mat.Matrix{g})
	}
	for i := range target {
		if math.Abs(w.Data[i]-target[i]) > 0.05 {
			t.Fatalf("Adam did not converge: w=%v", w.Data)
		}
	}
}

func TestAdamSkipsNilGrads(t *testing.T) {
	ps := NewParamSet()
	w := ps.Add("w", mat.FromSlice(1, 1, []float64{1}))
	opt := NewAdam(0.1)
	opt.StepFlat(ps, []*mat.Matrix{nil})
	if w.Data[0] != 1 {
		t.Fatal("parameter changed with no gradient")
	}
}

func TestGradientClipping(t *testing.T) {
	opt := NewAdam(0.1)                                             // ClipNorm 5
	g := []*mat.Matrix{mat.FromSlice(1, 2, []float64{30, 40}), nil} // norm 50
	if got := opt.clipScale(g) * mat.Norm2(g[0]); math.Abs(got-5) > 1e-9 {
		t.Fatalf("clipped norm = %v, want 5", got)
	}
	// Below threshold: untouched.
	if s := opt.clipScale([]*mat.Matrix{mat.FromSlice(1, 1, []float64{0.5})}); s != 1 {
		t.Fatalf("clip scale %v on a small gradient, want exactly 1", s)
	}
}

func TestDenseForwardShapesAndActs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := NewParamSet()
	layer := NewDense(ps, "d", 4, 3, SoftmaxAct, rng)
	tp := ad.NewTape()
	b := ps.Bind(tp)
	x := tp.Const(mat.FromSlice(1, 4, []float64{1, -1, 0.5, 2}))
	y := layer.Apply(b, x)
	if y.Value.Rows != 1 || y.Value.Cols != 3 {
		t.Fatalf("Dense output %dx%d", y.Value.Rows, y.Value.Cols)
	}
	if math.Abs(mat.Sum(y.Value)-1) > 1e-9 {
		t.Fatalf("softmax output does not sum to 1: %v", y.Value.Data)
	}
	for _, act := range []Activation{Linear, SigmoidAct, TanhAct, ReLUAct} {
		l := NewDense(ps, map[Activation]string{Linear: "lin", SigmoidAct: "sig", TanhAct: "tanh", ReLUAct: "relu"}[act], 4, 3, act, rng)
		tp2 := ad.NewTape()
		b2 := ps.Bind(tp2)
		out := l.Apply(b2, tp2.Const(mat.FromSlice(1, 4, []float64{1, -1, 0.5, 2})))
		if out.Value.Cols != 3 {
			t.Fatalf("activation %d output cols %d", act, out.Value.Cols)
		}
	}
}

func TestLSTMCellStepShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := NewParamSet()
	cell := NewLSTMCell(ps, "lstm", 10, 6, rng)
	tp := ad.NewTape()
	b := ps.Bind(tp)
	h0, c0 := cell.ZeroState(tp)
	_ = h0
	ctx := tp.Const(mat.New(1, 10))
	h, c := cell.Step(b, ctx, c0)
	if h.Value.Cols != 6 || c.Value.Cols != 6 {
		t.Fatalf("LSTM step output cols h=%d c=%d", h.Value.Cols, c.Value.Cols)
	}
}

func TestLSTMForgetGateBias(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ps := NewParamSet()
	NewLSTMCell(ps, "l", 8, 4, rng)
	bf := ps.Get("l.bf")
	for _, v := range bf.Data {
		if v != 1 {
			t.Fatalf("forget bias = %v, want 1", v)
		}
	}
	bi := ps.Get("l.bi")
	for _, v := range bi.Data {
		if v != 0 {
			t.Fatalf("input bias = %v, want 0", v)
		}
	}
}

// An LSTM trained to reproduce a constant target must reduce its loss.
func TestLSTMLearnsConstantTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := NewParamSet()
	cell := NewLSTMCell(ps, "l", 4+2, 4, rng) // ctx = [h, x] with x dim 2
	dec := NewDense(ps, "dec", 4, 2, Linear, rng)
	opt := NewAdam(0.01)
	target := mat.FromSlice(1, 2, []float64{0.3, -0.7})
	x := mat.FromSlice(1, 2, []float64{1, 0.5})

	lossAt := func() float64 {
		tp := ad.NewTape()
		b := ps.Bind(tp)
		h, c := cell.ZeroState(tp)
		for step := 0; step < 3; step++ {
			ctx := tp.ConcatCols(h, tp.Const(x))
			h, c = cell.Step(b, ctx, c)
		}
		out := dec.Apply(b, h)
		return ad.Scalar(MSELoss(tp, out, target))
	}

	first := lossAt()
	for i := 0; i < 120; i++ {
		tp := ad.NewTape()
		b := ps.Bind(tp)
		h, c := cell.ZeroState(tp)
		for step := 0; step < 3; step++ {
			ctx := tp.ConcatCols(h, tp.Const(x))
			h, c = cell.Step(b, ctx, c)
		}
		out := dec.Apply(b, h)
		loss := MSELoss(tp, out, target)
		tp.Backward(loss)
		grads := make([]*mat.Matrix, len(ps.Names()))
		b.GradsFlatInto(grads)
		opt.StepFlat(ps, grads)
	}
	last := lossAt()
	if last > first*0.1 {
		t.Fatalf("LSTM did not learn: first=%.6f last=%.6f", first, last)
	}
}

func TestLossValuesAgainstClosedForm(t *testing.T) {
	p := mat.FromSlice(1, 2, []float64{0.5, 0.5})
	qv := mat.FromSlice(1, 2, []float64{0.9, 0.1})

	tp := ad.NewTape()
	q := tp.Const(qv)

	kl := ad.Scalar(KLLoss(tp, p, q))
	wantKL := 0.5*math.Log(0.5/0.9) + 0.5*math.Log(0.5/0.1)
	if math.Abs(kl-wantKL) > 1e-6 {
		t.Fatalf("KL = %v, want %v", kl, wantKL)
	}

	js := ad.Scalar(JSLoss(tp, p, q))
	m := []float64{0.7, 0.3}
	wantJS := 0.5*(0.5*math.Log(0.5/m[0])+0.5*math.Log(0.5/m[1])) +
		0.5*(0.9*math.Log(0.9/m[0])+0.1*math.Log(0.1/m[1]))
	if math.Abs(js-wantJS) > 1e-6 {
		t.Fatalf("JS = %v, want %v", js, wantJS)
	}

	mse := ad.Scalar(MSELoss(tp, q, p))
	wantMSE := (0.4*0.4 + 0.4*0.4) / 2
	if math.Abs(mse-wantMSE) > 1e-9 {
		t.Fatalf("MSE = %v, want %v", mse, wantMSE)
	}
}

func TestJSLossProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		p, q := mat.New(1, n), mat.New(1, n)
		for i := 0; i < n; i++ {
			p.Data[i] = rng.Float64() + 0.01
			q.Data[i] = rng.Float64() + 0.01
		}
		mat.Normalize(p.Data)
		mat.Normalize(q.Data)
		tp := ad.NewTape()
		js := ad.Scalar(JSLoss(tp, p, tp.Const(q)))
		if js < -1e-9 {
			t.Fatalf("JS negative: %v", js)
		}
		if js > math.Log(2)+1e-9 {
			t.Fatalf("JS above ln2: %v", js)
		}
		// Symmetry.
		tp2 := ad.NewTape()
		js2 := ad.Scalar(JSLoss(tp2, q, tp2.Const(p)))
		if math.Abs(js-js2) > 1e-9 {
			t.Fatalf("JS not symmetric: %v vs %v", js, js2)
		}
		// Identity: JS(p,p) ~ 0.
		tp3 := ad.NewTape()
		js3 := ad.Scalar(JSLoss(tp3, p, tp3.Const(p)))
		if math.Abs(js3) > 1e-9 {
			t.Fatalf("JS(p,p) = %v", js3)
		}
	}
}

func TestActionLossDispatch(t *testing.T) {
	p := mat.FromSlice(1, 2, []float64{0.5, 0.5})
	for _, k := range []LossKind{LossJS, LossKL, LossL2} {
		tp := ad.NewTape()
		v := ActionLoss(k, tp, p, tp.Const(p))
		if got := ad.Scalar(v); math.Abs(got) > 1e-9 {
			t.Fatalf("%v(p,p) = %v, want 0", k, got)
		}
	}
	if LossJS.String() != "JS" || LossKL.String() != "KL" || LossL2.String() != "L2" {
		t.Fatal("LossKind.String wrong")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := NewParamSet()
	NewDense(ps, "d", 3, 2, Linear, rng)
	NewLSTMCell(ps, "l", 5, 4, rng)

	var buf bytes.Buffer
	if err := ps.Save(&buf); err != nil {
		t.Fatal(err)
	}

	ps2 := NewParamSet()
	NewDense(ps2, "d", 3, 2, Linear, rng)
	NewLSTMCell(ps2, "l", 5, 4, rng)
	if err := ps2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	for _, n := range ps.Names() {
		a, b := ps.Get(n), ps2.Get(n)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("round trip mismatch at %s[%d]", n, i)
			}
		}
	}
}

func TestLoadShapeMismatch(t *testing.T) {
	ps := NewParamSet()
	ps.Add("w", mat.New(2, 2))
	var buf bytes.Buffer
	if err := ps.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ps2 := NewParamSet()
	ps2.Add("w", mat.New(3, 3))
	if err := ps2.Load(&buf); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

// BenchmarkAdamStep measures one optimiser step over the served CLSTM's
// 18 675 parameters (48/19 dims, hidden 32/16, full coupling): two LSTM
// cells and two decoders, twenty matrices.
func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ps := NewParamSet()
	NewLSTMCell(ps, "lstmI", 32+16+48, 32, rng)
	NewLSTMCell(ps, "lstmA", 32+16+19, 16, rng)
	NewDense(ps, "decI", 32, 48, SoftmaxAct, rng)
	NewDense(ps, "decA", 16, 19, Linear, rng)
	if ps.NumParams() != 18675 {
		b.Fatalf("parameter set has %d scalars, want the served model's 18675", ps.NumParams())
	}
	var grads []*mat.Matrix
	for _, n := range ps.Names() {
		p := ps.Get(n)
		g := mat.New(p.Rows, p.Cols)
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		grads = append(grads, g)
	}
	opt := NewAdam(0.001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.StepFlat(ps, grads)
	}
}

// TestAdamSaveLoadResumesIdentically snapshots the optimiser mid-training
// and requires a restored copy to produce bit-identical parameter updates —
// the optimiser half of the model runtime snapshot (core.Model.SaveRuntime).
func TestAdamSaveLoadResumesIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ps := NewParamSet()
	NewDense(ps, "d", 4, 3, Linear, rng)
	NewLSTMCell(ps, "l", 6, 4, rng)
	grads := func(seed int64) []*mat.Matrix {
		var g []*mat.Matrix
		grng := rand.New(rand.NewSource(seed))
		for _, n := range ps.Names() {
			p := ps.Get(n)
			m := mat.New(p.Rows, p.Cols)
			for i := range m.Data {
				m.Data[i] = grng.NormFloat64()
			}
			g = append(g, m)
		}
		return g
	}
	opt := NewAdam(0.01)
	for s := int64(0); s < 3; s++ {
		opt.StepFlat(ps, grads(100+s))
	}

	// Snapshot parameters + optimiser, restore into a parallel universe.
	var obuf, pbuf bytes.Buffer
	if err := opt.Save(&obuf); err != nil {
		t.Fatal(err)
	}
	if err := ps.Save(&pbuf); err != nil {
		t.Fatal(err)
	}
	ps2 := ps.Clone()
	if err := ps2.Load(&pbuf); err != nil {
		t.Fatal(err)
	}
	opt2 := NewAdam(0.99) // junk hyperparameters: Load must overwrite them
	if err := opt2.Load(&obuf); err != nil {
		t.Fatal(err)
	}
	if opt2.LR != opt.LR || opt2.ClipNorm != opt.ClipNorm {
		t.Fatalf("hyperparameters not restored: %+v", opt2)
	}

	for s := int64(0); s < 3; s++ {
		opt.StepFlat(ps, grads(200+s))
		opt2.StepFlat(ps2, grads(200+s))
	}
	for _, n := range ps.Names() {
		a, b := ps.Get(n), ps2.Get(n)
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
				t.Fatalf("post-restore training diverged at %s[%d]: %v vs %v", n, i, a.Data[i], b.Data[i])
			}
		}
	}
}

func TestAdamLoadRejectsMalformedState(t *testing.T) {
	opt := NewAdam(0.01)
	if err := opt.Load(bytes.NewBufferString("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(adamWire{
		Names: []string{"w"}, Rows: []int{2}, Cols: []int{2},
		M: [][]float64{{1}}, V: [][]float64{{1}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := opt.Load(&buf); err == nil {
		t.Fatal("shape/value mismatch accepted")
	}
}

func TestAdamCheckShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := NewParamSet()
	NewDense(ps, "d", 4, 3, Linear, rng)
	opt := NewAdam(0.01)
	opt.StepFlat(ps, []*mat.Matrix{mat.New(4, 3), mat.New(1, 3)}) // d.W, d.b
	if err := opt.CheckShapes(ps); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
	// A moment whose shape disagrees with the parameter, or that names no
	// parameter at all, must be refused.
	other := NewParamSet()
	NewDense(other, "d", 5, 3, Linear, rng)
	if err := opt.CheckShapes(other); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	empty := NewParamSet()
	if err := opt.CheckShapes(empty); err == nil {
		t.Fatal("unknown moment name accepted")
	}
	// Negative dimensions in the wire must be refused by Load even when
	// rows*cols matches the data length.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(adamWire{
		Names: []string{"w"}, Rows: []int{-1}, Cols: []int{-1},
		M: [][]float64{{1}}, V: [][]float64{{1}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := NewAdam(0.01).Load(&buf); err == nil {
		t.Fatal("negative dimensions accepted")
	}
}
