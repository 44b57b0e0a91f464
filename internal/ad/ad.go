// Package ad implements a small tape-based reverse-mode automatic
// differentiation engine over dense matrices.
//
// The CLSTM model of the AOVLIS paper (and every baseline that needs
// training) is expressed as a forward computation over ad.Node values;
// gradients with respect to all Var leaves are then produced by a single
// Backward pass. The engine supports exactly the operators needed by the
// coupled-LSTM equations (Eq. 1-10 of the paper), the decoders, and the
// JS/KL/MSE reconstruction losses (Eq. 13).
//
// Usage:
//
//	tp := ad.NewTape()
//	w := tp.Var(weights)           // trainable leaf
//	x := tp.Const(input)           // non-trainable leaf
//	y := tp.Tanh(tp.MatMul(x, w))  // forward graph
//	loss := tp.Mean(tp.Square(y))
//	tp.Backward(loss)              // w.Grad now holds dLoss/dW
//
// A tape records one step: every node and every Value/Grad matrix is a
// fresh allocation, so record each step on a new tape. Parameter matrices
// passed to Var are caller-owned and are never copied, which is what lets
// parameters persist and update in place across steps. The CLSTM engine
// trains and scores without a tape; this one trains the gradient-descent
// baselines and is the bit-level reference the engine's goldens compare
// against.
//
// A Tape is not safe for concurrent use; build one per goroutine.
package ad

import (
	"fmt"
	"math"
	"slices"

	"aovlis/internal/mat"
)

// logEps guards Log against zero inputs; reconstruction features are
// probability vectors that may contain exact zeros.
const logEps = 1e-12

// opKind identifies the operator that produced a node; Backward dispatches
// on it.
type opKind uint8

const (
	opLeaf opKind = iota
	opAdd
	opSub
	opMul
	opScale
	opMatMul
	opConcat
	opSigmoid
	opTanh
	opReLU
	opLog
	opSoftmax
	opSum
)

// Node is one vertex of the computation graph. Value is the forward result;
// Grad accumulates the derivative of the scalar output with respect to Value
// during Backward. Grad is nil for constants.
type Node struct {
	Value *mat.Matrix
	Grad  *mat.Matrix

	op   opKind
	a, b *Node   // unary/binary operands
	ps   []*Node // ConcatCols operands
	s    float64 // Scale factor
	leaf bool
}

// Tape records the forward computation in execution order so Backward can
// replay it in reverse. A Tape is not safe for concurrent use.
type Tape struct {
	nodes []*Node
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// record appends n to the tape and returns it.
func (t *Tape) record(n *Node) *Node {
	t.nodes = append(t.nodes, n)
	return n
}

// Var registers v as a trainable leaf. The matrix is NOT copied: the caller
// owns the storage (parameters update in place between steps). Grad is a
// fresh zeroed matrix.
func (t *Tape) Var(v *mat.Matrix) *Node {
	return t.record(&Node{leaf: true, Value: v, Grad: mat.New(v.Rows, v.Cols)})
}

// Const registers v as a non-trainable leaf. No gradient is accumulated.
func (t *Tape) Const(v *mat.Matrix) *Node {
	return t.record(&Node{leaf: true, Value: v})
}

// grad returns n.Grad, allocating it zeroed on first touch.
func grad(n *Node) *mat.Matrix {
	if n.Grad == nil {
		n.Grad = mat.New(n.Value.Rows, n.Value.Cols)
	}
	return n.Grad
}

// needsGrad reports whether gradient flow into n is useful.
func needsGrad(n *Node) bool { return !n.leaf || n.Grad != nil }

// Add returns a + b.
func (t *Tape) Add(a, b *Node) *Node {
	return t.record(&Node{op: opAdd, a: a, b: b, Value: mat.Add(a.Value, b.Value)})
}

// Sub returns a - b.
func (t *Tape) Sub(a, b *Node) *Node {
	return t.record(&Node{op: opSub, a: a, b: b, Value: mat.Sub(a.Value, b.Value)})
}

// Mul returns the elementwise product a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	return t.record(&Node{op: opMul, a: a, b: b, Value: mat.Mul(a.Value, b.Value)})
}

// Scale returns s·a for a fixed scalar s.
func (t *Tape) Scale(s float64, a *Node) *Node {
	return t.record(&Node{op: opScale, a: a, s: s, Value: mat.Scale(s, a.Value)})
}

// MatMul returns the matrix product a·b.
func (t *Tape) MatMul(a, b *Node) *Node {
	return t.record(&Node{op: opMatMul, a: a, b: b, Value: mat.MatMul(a.Value, b.Value)})
}

// ConcatCols returns the column-wise concatenation [a₁ | a₂ | ...]. All
// inputs must share the same number of rows. The coupled-LSTM gate input
// [h_{t-1}, g_{t-1}, f_t] is built with this operator.
func (t *Tape) ConcatCols(parts ...*Node) *Node {
	if len(parts) == 0 {
		panic("ad: ConcatCols needs at least one input")
	}
	rows, cols := parts[0].Value.Rows, 0
	for _, p := range parts {
		cols += p.Value.Cols
	}
	v := mat.New(rows, cols)
	off := 0
	for _, p := range parts {
		if p.Value.Rows != rows {
			panic(fmt.Sprintf("ad: ConcatCols row mismatch %d vs %d", rows, p.Value.Rows))
		}
		for i := 0; i < rows; i++ {
			copy(v.Row(i)[off:off+p.Value.Cols], p.Value.Row(i))
		}
		off += p.Value.Cols
	}
	return t.record(&Node{op: opConcat, ps: slices.Clone(parts), Value: v})
}

// Sigmoid returns σ(a) elementwise.
func (t *Tape) Sigmoid(a *Node) *Node {
	v := mat.Apply(a.Value, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) })
	return t.record(&Node{op: opSigmoid, a: a, Value: v})
}

// Tanh returns tanh(a) elementwise.
func (t *Tape) Tanh(a *Node) *Node {
	return t.record(&Node{op: opTanh, a: a, Value: mat.Apply(a.Value, math.Tanh)})
}

// ReLU returns max(0, a) elementwise.
func (t *Tape) ReLU(a *Node) *Node {
	v := mat.Apply(a.Value, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
	return t.record(&Node{op: opReLU, a: a, Value: v})
}

// Log returns ln(a + ε) elementwise, with ε guarding zero probabilities.
func (t *Tape) Log(a *Node) *Node {
	v := mat.Apply(a.Value, func(x float64) float64 { return math.Log(x + logEps) })
	return t.record(&Node{op: opLog, a: a, Value: v})
}

// Square returns a ⊙ a.
func (t *Tape) Square(a *Node) *Node { return t.Mul(a, a) }

// Softmax returns the row-wise softmax of a. Decoder DeI uses it so the
// reconstructed action feature f̂ is a probability distribution, matching
// the paper's JS-divergence scoring domain.
func (t *Tape) Softmax(a *Node) *Node {
	v := mat.New(a.Value.Rows, a.Value.Cols)
	for i := 0; i < v.Rows; i++ {
		mat.SoftmaxInto(v.Row(i), a.Value.Row(i))
	}
	return t.record(&Node{op: opSoftmax, a: a, Value: v})
}

// Sum reduces a to a 1x1 node holding the sum of all elements.
func (t *Tape) Sum(a *Node) *Node {
	v := mat.FromSlice(1, 1, []float64{mat.Sum(a.Value)})
	return t.record(&Node{op: opSum, a: a, Value: v})
}

// Mean reduces a to a 1x1 node holding the arithmetic mean of all elements.
func (t *Tape) Mean(a *Node) *Node {
	n := float64(len(a.Value.Data))
	if n == 0 {
		panic("ad: Mean of empty matrix")
	}
	return t.Scale(1/n, t.Sum(a))
}

// backstep propagates n's gradient into its operands. The arithmetic is the
// fused equivalent of the original closure implementations: every operand
// update performs the same floating-point operations in the same order, so
// gradients are bitwise identical to the pre-opcode engine. Products that
// feed an add or subtract are rounded through an explicit float64
// conversion first: the tape is the bit-level reference of the hand-derived
// training engine (nn.TrainCell), and a compiler that contracts x·y+z into
// one FMA (arm64) must not make the two disagree.
func backstep(n *Node) {
	g := n.Grad
	switch n.op {
	case opAdd:
		if needsGrad(n.a) {
			mat.AddInto(grad(n.a), g)
		}
		if needsGrad(n.b) {
			mat.AddInto(grad(n.b), g)
		}
	case opSub:
		if needsGrad(n.a) {
			mat.AddInto(grad(n.a), g)
		}
		if needsGrad(n.b) {
			mat.AddScaledInto(grad(n.b), -1, g)
		}
	case opMul:
		if needsGrad(n.a) {
			mat.AddMulInto(grad(n.a), g, n.b.Value)
		}
		if needsGrad(n.b) {
			mat.AddMulInto(grad(n.b), g, n.a.Value)
		}
	case opScale:
		if needsGrad(n.a) {
			mat.AddScaledInto(grad(n.a), n.s, g)
		}
	case opMatMul:
		// dL/dA = dL/dOut · Bᵀ ; dL/dB = Aᵀ · dL/dOut
		if needsGrad(n.a) {
			mat.MatMulBTInto(grad(n.a), g, n.b.Value)
		}
		if needsGrad(n.b) {
			mat.MatMulATInto(grad(n.b), n.a.Value, g)
		}
	case opConcat:
		off := 0
		for _, p := range n.ps {
			w := p.Value.Cols
			if needsGrad(p) {
				pg := grad(p)
				for i := 0; i < p.Value.Rows; i++ {
					prow := pg.Row(i)
					for j, v := range g.Row(i)[off : off+w] {
						prow[j] += v
					}
				}
			}
			off += w
		}
	case opSigmoid:
		if needsGrad(n.a) {
			ag := grad(n.a)
			for i, s := range n.Value.Data {
				ag.Data[i] += float64(g.Data[i] * s * (1 - s))
			}
		}
	case opTanh:
		if needsGrad(n.a) {
			ag := grad(n.a)
			for i, th := range n.Value.Data {
				ag.Data[i] += float64(g.Data[i] * (1 - float64(th*th)))
			}
		}
	case opReLU:
		if needsGrad(n.a) {
			ag := grad(n.a)
			for i := range n.Value.Data {
				if n.a.Value.Data[i] > 0 {
					ag.Data[i] += g.Data[i]
				}
			}
		}
	case opLog:
		if needsGrad(n.a) {
			ag := grad(n.a)
			for i, x := range n.a.Value.Data {
				ag.Data[i] += g.Data[i] / (x + logEps)
			}
		}
	case opSoftmax:
		if needsGrad(n.a) {
			ag := grad(n.a)
			for i := 0; i < n.Value.Rows; i++ {
				srow, grow, orow := n.Value.Row(i), ag.Row(i), g.Row(i)
				var dot float64
				for j, s := range srow {
					dot += float64(orow[j] * s)
				}
				for j, s := range srow {
					grow[j] += float64(s * (orow[j] - dot))
				}
			}
		}
	case opSum:
		if needsGrad(n.a) {
			ag := grad(n.a)
			g0 := g.Data[0]
			for i := range ag.Data {
				ag.Data[i] += g0
			}
		}
	}
}

// Backward runs reverse-mode differentiation from out, which must be a 1x1
// scalar node recorded on this tape. After it returns, every Var leaf's Grad
// holds d(out)/d(leaf).
func (t *Tape) Backward(out *Node) {
	if out.Value.Rows != 1 || out.Value.Cols != 1 {
		panic(fmt.Sprintf("ad: Backward requires scalar output, got %dx%d", out.Value.Rows, out.Value.Cols))
	}
	grad(out).Data[0] = 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if n := t.nodes[i]; n.op != opLeaf && n.Grad != nil {
			backstep(n)
		}
	}
}

// Scalar returns the single element of a 1x1 node.
func Scalar(n *Node) float64 {
	if n.Value.Rows != 1 || n.Value.Cols != 1 {
		panic(fmt.Sprintf("ad: Scalar of %dx%d node", n.Value.Rows, n.Value.Cols))
	}
	return n.Value.Data[0]
}
