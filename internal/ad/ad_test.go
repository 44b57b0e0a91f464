package ad

import (
	"math"
	"math/rand"
	"testing"

	"aovlis/internal/mat"
)

// numericalGrad estimates dF/dx by central differences for the parameter x,
// where buildLoss reconstructs the whole forward graph from current values.
func numericalGrad(x *mat.Matrix, buildLoss func() float64) *mat.Matrix {
	const h = 1e-6
	g := mat.New(x.Rows, x.Cols)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		fp := buildLoss()
		x.Data[i] = orig - h
		fm := buildLoss()
		x.Data[i] = orig
		g.Data[i] = (fp - fm) / (2 * h)
	}
	return g
}

func checkGrads(t *testing.T, name string, params []*mat.Matrix, build func(tp *Tape, vars []*Node) *Node) {
	t.Helper()
	tp := NewTape()
	vars := make([]*Node, len(params))
	for i, p := range params {
		vars[i] = tp.Var(p)
	}
	loss := build(tp, vars)
	tp.Backward(loss)

	for pi, p := range params {
		num := numericalGrad(p, func() float64 {
			tp2 := NewTape()
			vs := make([]*Node, len(params))
			for i, q := range params {
				vs[i] = tp2.Var(q)
			}
			return Scalar(build(tp2, vs))
		})
		for i := range p.Data {
			got := vars[pi].Grad.Data[i]
			want := num.Data[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%s: param %d elem %d: autodiff %.8f vs numerical %.8f", name, pi, i, got, want)
			}
		}
	}
}

func randMat(rng *rand.Rand, r, c int) *mat.Matrix {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * 0.5
	}
	return m
}

func randProb(rng *rand.Rand, n int) *mat.Matrix {
	m := mat.New(1, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64() + 0.05
	}
	mat.Normalize(m.Data)
	return m
}

func TestGradAddSubMulScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randMat(rng, 2, 3), randMat(rng, 2, 3)
	checkGrads(t, "add-sub-mul-scale", []*mat.Matrix{a, b}, func(tp *Tape, v []*Node) *Node {
		x := tp.Add(v[0], v[1])
		y := tp.Sub(v[0], tp.Scale(0.7, v[1]))
		return tp.Mean(tp.Mul(x, y))
	})
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(rng, 3, 4), randMat(rng, 4, 2)
	checkGrads(t, "matmul", []*mat.Matrix{a, b}, func(tp *Tape, v []*Node) *Node {
		return tp.Mean(tp.Square(tp.MatMul(v[0], v[1])))
	})
}

// TestConcatColsOwnsItsOperands reuses the operand slice after ConcatCols
// returns, as a caller building contexts in a loop does: the gradient must
// still reach the nodes that were concatenated.
func TestConcatColsOwnsItsOperands(t *testing.T) {
	tp := NewTape()
	a := tp.Var(mat.FromSlice(1, 2, []float64{1, 2}))
	b := tp.Var(mat.FromSlice(1, 1, []float64{3}))
	other := tp.Var(mat.New(1, 2))
	parts := []*Node{a, b}
	cat := tp.ConcatCols(parts...)
	parts[0] = other
	tp.Backward(tp.Sum(cat))
	for i, v := range a.Grad.Data {
		if v != 1 {
			t.Fatalf("a.Grad[%d] = %v, want 1", i, v)
		}
	}
	if g := other.Grad.Data; g[0] != 0 || g[1] != 0 {
		t.Fatalf("gradient leaked into a node swapped in after ConcatCols: %v", g)
	}
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 2, 5)
	checkGrads(t, "activations", []*mat.Matrix{a}, func(tp *Tape, v []*Node) *Node {
		s := tp.Sigmoid(v[0])
		th := tp.Tanh(v[0])
		r := tp.ReLU(v[0])
		return tp.Mean(tp.Add(tp.Mul(s, th), r))
	})
}

func TestGradConcatSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b, c := randMat(rng, 1, 3), randMat(rng, 1, 2), randMat(rng, 1, 4)
	checkGrads(t, "concat-slice", []*mat.Matrix{a, b, c}, func(tp *Tape, v []*Node) *Node {
		cat := tp.ConcatCols(v[0], v[1], v[2])
		mid := tp.SliceCols(cat, 2, 7)
		return tp.Mean(tp.Square(mid))
	})
}

func TestGradSoftmaxLog(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 1, 6)
	target := randProb(rng, 6)
	checkGrads(t, "softmax-log", []*mat.Matrix{a}, func(tp *Tape, v []*Node) *Node {
		q := tp.Softmax(v[0])
		// cross-entropy −Σ p log q
		ce := tp.Scale(-1, tp.Sum(tp.Mul(tp.Const(target), tp.Log(q))))
		return ce
	})
}

func TestGradJSStyleLoss(t *testing.T) {
	// The exact composite used by the CLSTM training loss: JS divergence
	// between a constant distribution p and softmax output q.
	rng := rand.New(rand.NewSource(6))
	a := randMat(rng, 1, 8)
	p := randProb(rng, 8)
	checkGrads(t, "js-loss", []*mat.Matrix{a}, func(tp *Tape, v []*Node) *Node {
		q := tp.Softmax(v[0])
		pc := tp.Const(p)
		m := tp.Scale(0.5, tp.Add(pc, q))
		klPM := tp.Sub(tp.Sum(tp.Mul(pc, tp.Log(pc))), tp.Sum(tp.Mul(pc, tp.Log(m))))
		klQM := tp.Sub(tp.Sum(tp.Mul(q, tp.Log(q))), tp.Sum(tp.Mul(q, tp.Log(m))))
		return tp.Scale(0.5, tp.Add(klPM, klQM))
	})
}

func TestGradLSTMStyleCell(t *testing.T) {
	// A single coupled-gate step: σ(W[h,g,x]+b) ⊙ tanh(Wc[h,g,x]+bc),
	// exercising the full operator set the CLSTM forward pass uses.
	rng := rand.New(rand.NewSource(7))
	h, g, x := randMat(rng, 1, 4), randMat(rng, 1, 4), randMat(rng, 1, 5)
	w := randMat(rng, 13, 4)
	b := randMat(rng, 1, 4)
	wc := randMat(rng, 13, 4)
	bc := randMat(rng, 1, 4)
	checkGrads(t, "lstm-cell", []*mat.Matrix{h, g, x, w, b, wc, bc}, func(tp *Tape, v []*Node) *Node {
		in := tp.ConcatCols(v[0], v[1], v[2])
		gate := tp.Sigmoid(tp.Add(tp.MatMul(in, v[3]), v[4]))
		cand := tp.Tanh(tp.Add(tp.MatMul(in, v[5]), v[6]))
		return tp.Mean(tp.Square(tp.Mul(gate, cand)))
	})
}

func TestGradDoesNotFlowIntoConst(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tp := NewTape()
	a := tp.Var(randMat(rng, 1, 3))
	c := tp.Const(randMat(rng, 1, 3))
	loss := tp.Mean(tp.Mul(a, c))
	tp.Backward(loss)
	if c.Grad != nil {
		t.Fatal("constant received a gradient")
	}
	if a.Grad == nil || mat.Norm2(a.Grad) == 0 {
		t.Fatal("variable received no gradient")
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward of non-scalar did not panic")
		}
	}()
	tp := NewTape()
	a := tp.Var(mat.New(2, 2))
	tp.Backward(a)
}

func TestScalar(t *testing.T) {
	tp := NewTape()
	n := tp.Const(mat.FromSlice(1, 1, []float64{3.25}))
	if Scalar(n) != 3.25 {
		t.Fatalf("Scalar = %v", Scalar(n))
	}
}

func TestReuseVarAcrossTapes(t *testing.T) {
	// Parameters live outside the tape; two tapes over the same storage must
	// both produce correct, independent gradients.
	rng := rand.New(rand.NewSource(9))
	w := randMat(rng, 2, 2)
	x := randMat(rng, 1, 2)

	tp1 := NewTape()
	v1 := tp1.Var(w)
	tp1.Backward(tp1.Mean(tp1.MatMul(tp1.Const(x), v1)))
	g1 := v1.Grad.Clone()

	tp2 := NewTape()
	v2 := tp2.Var(w)
	tp2.Backward(tp2.Mean(tp2.Square(tp2.MatMul(tp2.Const(x), v2))))

	if mat.SameShape(g1, v2.Grad) && mat.Norm2(mat.Sub(g1, v2.Grad)) == 0 {
		t.Fatal("distinct losses produced identical gradients; tapes not independent")
	}
	for i := range g1.Data {
		if math.IsNaN(g1.Data[i]) || math.IsNaN(v2.Grad.Data[i]) {
			t.Fatal("NaN gradient")
		}
	}
}

func TestSumMeanValues(t *testing.T) {
	tp := NewTape()
	a := tp.Const(mat.FromSlice(2, 2, []float64{1, 2, 3, 4}))
	if got := Scalar(tp.Sum(a)); got != 10 {
		t.Fatalf("Sum = %v", got)
	}
	if got := Scalar(tp.Mean(a)); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestSliceColsBounds(t *testing.T) {
	tp := NewTape()
	a := tp.Const(mat.New(1, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("SliceCols out of range did not panic")
		}
	}()
	tp.SliceCols(a, 2, 9)
}

func BenchmarkLSTMCellForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	h, g, x := randMat(rng, 1, 64), randMat(rng, 1, 64), randMat(rng, 1, 128)
	w, bias := randMat(rng, 256, 64), randMat(rng, 1, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		in := tp.ConcatCols(tp.Const(h), tp.Const(g), tp.Const(x))
		wv, bv := tp.Var(w), tp.Var(bias)
		gate := tp.Sigmoid(tp.Add(tp.MatMul(in, wv), bv))
		loss := tp.Mean(tp.Square(gate))
		tp.Backward(loss)
	}
}
