package nn

// The tape-free training form of a model's head: one stream's decoder
// (a Dense layer, linear or softmax) and its reconstruction loss (JS, KL or
// L2/MSE). TrainCell took the recurrence off the autodiff tape; TrainHead
// takes the last twenty-odd nodes. Every value it produces — the prediction,
// the loss, ∂L/∂input and the decoder's two parameter gradients — is the
// tape's, bit for bit: the same floating-point operations per output element
// in the order Dense.Apply, ActionLoss and Tape.Backward perform them,
// including each gradient's first accumulation into a zeroed matrix (the
// "0 +" below turns a −0 product into +0, as that accumulation does) and the
// rounding of every product before it is added (the float64 conversions
// forbid FMA contraction, as storing the product in a node does). What goes
// is the work around the arithmetic: node bookkeeping, a matrix
// per intermediate, a second log(m) for the JS loss's second use of it, and
// gradients of constants nobody reads. TestTrainHeadMatchesTape and
// TestTrainPlanGoldenEquivalence in internal/core hold it to the tape.

import (
	"fmt"
	"math"

	"aovlis/internal/mat"
)

// logEps is ad.Tape.Log's guard against zero probabilities.
const logEps = 1e-12

// TrainHead runs one decoder and its loss forward and backward. The owner
// (core.TrainPlan) calls Forward with the stream's final hidden state, Loss
// with the target, and — when training — Backward with ∂L/∂loss. Not safe
// for concurrent use.
type TrainHead struct {
	in, out int
	softmax bool
	kind    LossKind

	w, b       *mat.Matrix // live decoder parameters
	wIdx, bIdx int         // their registration indexes in the ParamSet

	// Forward and loss state. pred is the decoder's output; z its
	// preactivation (pred itself for a linear decoder).
	x, target []float64 // the last Forward's input and Loss's target (not copied)
	pred, z   []float64
	diff      []float64 // L2: pred − target
	mid       []float64 // JS: m = ½(p + q)
	logMid    []float64 // JS: ln(m + ε)
	logPred   []float64 // JS: ln(q + ε)

	// Backward state, allocated by the first Backward so a model that only
	// evaluates never pays for gradient storage. dB views dz: the bias
	// gradient IS the preactivation gradient.
	dz, dx []float64
	dW, dB *mat.Matrix
}

// NewTrainHead builds the training form of dense, whose activation must be
// Linear or SoftmaxAct, under the given reconstruction loss.
func NewTrainHead(ps *ParamSet, dense *Dense, kind LossKind) *TrainHead {
	if dense.Act != Linear && dense.Act != SoftmaxAct {
		panic(fmt.Sprintf("nn: train head over %s: activation %d is neither linear nor softmax", dense.Name, dense.Act))
	}
	if kind != LossJS && kind != LossKL && kind != LossL2 {
		panic(fmt.Sprintf("nn: unknown loss kind %d", kind))
	}
	h := &TrainHead{
		in: dense.In, out: dense.Out, softmax: dense.Act == SoftmaxAct, kind: kind,
		w: ps.Get(dense.wName), wIdx: ps.indexOf(dense.wName),
		b: ps.Get(dense.bName), bIdx: ps.indexOf(dense.bName),
		pred: make([]float64, dense.Out),
	}
	h.z = h.pred
	if h.softmax {
		h.z = make([]float64, dense.Out)
	}
	switch kind {
	case LossL2:
		h.diff = make([]float64, dense.Out)
	case LossJS:
		h.mid, h.logMid, h.logPred = make([]float64, dense.Out), make([]float64, dense.Out), make([]float64, dense.Out)
	}
	return h
}

// Forward decodes x (read again by Backward): the tape's MatMul, Add and,
// for a softmax decoder, Softmax nodes.
func (h *TrainHead) Forward(x []float64) {
	h.x = x
	mat.GEMVBiasInto(h.z, x, h.w, h.b.Data)
	if h.softmax {
		mat.SoftmaxInto(h.pred, h.z)
	}
}

// Loss returns the reconstruction loss of the last Forward's prediction
// against target (read again by Backward): ActionLoss(kind, …) node for node.
func (h *TrainHead) Loss(target []float64) float64 {
	if len(target) != h.out {
		panic(fmt.Sprintf("nn: train head target has %d values, decoder emits %d", len(target), h.out))
	}
	h.target = target
	q := h.pred
	switch h.kind {
	case LossL2:
		// mean((q − p)²): Sub, Mul, Sum, Scale(1/n).
		var sum float64
		for i, p := range target {
			d := q[i] - p
			h.diff[i] = d
			sum += float64(d * d)
		}
		return (1 / float64(h.out)) * sum
	case LossKL:
		// Σ p·ln p − Σ p·ln q.
		var sumP, sumQ float64
		for i, p := range target {
			sumP += float64(p * math.Log(p+logEps))
			sumQ += float64(p * math.Log(q[i]+logEps))
		}
		return sumP - sumQ
	default:
		// ½·((Σ p·ln p − Σ p·ln m) + (Σ q·ln q − Σ q·ln m)), m = ½(p + q).
		var sumPP, sumPM, sumQQ, sumQM float64
		for i, p := range target {
			qi := q[i]
			m := float64(0.5 * (p + qi))
			lm, lq := math.Log(m+logEps), math.Log(qi+logEps)
			h.mid[i], h.logMid[i], h.logPred[i] = m, lm, lq
			sumPP += float64(p * math.Log(p+logEps))
			sumPM += float64(p * lm)
			sumQQ += float64(qi * lq)
			sumQM += float64(qi * lm)
		}
		return 0.5 * ((sumPP - sumPM) + (sumQQ - sumQM))
	}
}

// Backward backpropagates g = ∂L/∂loss through the loss and the decoder of
// the last Forward and Loss, leaves the decoder's parameter gradients where
// GradsFlatInto points, and returns ∂L/∂x (head-owned, valid until the next
// Backward).
func (h *TrainHead) Backward(g float64) []float64 {
	if h.dz == nil {
		h.dz, h.dx = make([]float64, h.out), make([]float64, h.in)
		h.dW, h.dB = mat.New(h.in, h.out), mat.FromSlice(1, h.out, h.dz)
	}
	// ∂L/∂pred lands in dz; a softmax decoder then turns it into ∂L/∂z in
	// place.
	h.lossBackward(g, h.dz)
	if h.softmax {
		var dot float64
		for j, s := range h.pred {
			dot += float64(h.dz[j] * s)
		}
		for j, s := range h.pred {
			h.dz[j] = 0 + float64(s*(h.dz[j]-dot))
		}
	}
	// Neither ∂L/∂z is ever −0 (each is a "0 +" sum), so the Add node's
	// two first accumulations, 0 + dz, are dz: it is the bias gradient and
	// the product's gradient as it stands. Then MatMul's two backsteps:
	// ∂L/∂x[j] = 0 + Σ_k dz[k]·W[j][k], a complete ascending-k sum (never −0
	// either), and ∂L/∂W = xᵀ·dz from zero with the tape's x[k] == 0 skip —
	// the one-step case of the cells' weight-gradient kernel.
	mat.VecMatTTo(h.dx, h.dz, h.w)
	mat.MatMulATStepsInto(h.dW, h.x, h.dz, h.out, 1)
	return h.dx
}

// lossBackward writes ∂L/∂pred into dq given g = ∂L/∂loss, one tape
// backstep per line in Backward's reverse recording order. Gradients of the
// constant target are not computed: nothing reads them.
func (h *TrainHead) lossBackward(g float64, dq []float64) {
	q := h.pred
	switch h.kind {
	case LossL2:
		gSum := 0 + float64((1/float64(h.out))*g) // Scale(1/n)
		gSq := 0 + gSum                           // Sum
		for i, d := range h.diff {
			// Mul(d, d) reaches d through both operands; Sub passes it on.
			gd := (0 + float64(gSq*d)) + float64(gSq*d)
			dq[i] = 0 + gd
		}
	case LossKL:
		gSumQ := 0 + float64(-1*g) // Sub's second operand
		gMul := 0 + gSumQ          // Sum
		for i, p := range h.target {
			gLog := 0 + float64(gMul*p) // Mul(p, ln q)
			dq[i] = 0 + gLog/(q[i]+logEps)
		}
	default:
		gAdd := 0 + float64(0.5*g)     // Scale(½)
		gKLpm, gKLqm := 0+gAdd, 0+gAdd // Add
		gQQ := 0 + gKLqm               // Sub(Σ q·ln q, Σ q·ln m): Sum's elements
		gQM := 0 + (0 + float64(-1*gKLqm))
		gPM := 0 + (0 + float64(-1*gKLpm)) // Sub(Σ p·ln p, Σ p·ln m), second operand
		for i, p := range h.target {
			qi, den := q[i], h.mid[i]+logEps
			// Mul(q, ln m), then its Log(m).
			d := 0 + float64(gQM*h.logMid[i])
			gm := 0 + (0+float64(gQM*qi))/den
			// Mul(q, ln q), then its Log(q).
			d += float64(gQQ * h.logPred[i])
			d += (0 + float64(gQQ*qi)) / (qi + logEps)
			// Mul(p, ln m), then its Log(m); Scale(½) and Add(p, q) carry
			// ∂L/∂m back to q.
			gm += (0 + float64(gPM*p)) / den
			d += 0 + float64(0.5*gm)
			dq[i] = d
		}
	}
}

// GradsFlatInto stores the decoder's two gradient matrices at their
// parameters' registration indexes in dst (see Binding.GradsFlatInto). The
// matrices exist from the first Backward on; they are owned by the head and
// rewritten by every Backward.
func (h *TrainHead) GradsFlatInto(dst []*mat.Matrix) {
	dst[h.wIdx], dst[h.bIdx] = h.dW, h.dB
}
