package nn

// Gate-fused, tape-free inference forms of the layers. An LSTMCell trains
// through four separate ctxDim×H gate weight matrices on the autodiff tape;
// for prediction the step fills one packed preactivation row per lane (gate
// order i, f, c, o, 4H wide) and runs the fused elementwise gate kernel over
// it. The row is packed, the weights are not: each gate's GEMM reads that
// gate's own row-major parameter matrix — row k holds the gate's outputs'
// weights at context element k, so the SIMD kernels load 4-8 output columns
// per vector instruction — and writes its H-column block of the row in
// place (mat.FwdGEMMBiasStrideInto). Every output accumulates over k in
// ascending order with no FMA contraction, so kernel choice never changes a
// float bit relative to the tape forward pass (see mat/batch.go and the
// golden equivalence tests in internal/core).
//
// A FusedCell/FusedDense is therefore a header over a ParamSet's own matrix
// headers and costs no weight bytes. A write to the parameters — an
// optimiser step, a merge, a load — is what the next step reads, with
// nothing to refresh in between, and a copy-on-write detach (ParamSet.Clone)
// repoints the headers' Data, which the layer follows.
//
// StepBatch/ApplyBatch are what core.InferPlan runs: B stacked context
// rows (its lanes) go through one GEMM per gate and layer step instead of B
// GEMVs, which is what lets a shard worker score B pending segments at a
// per-segment cost below one-at-a-time scoring (ARCHITECTURE.md §8).
// StepInto is the same step over one lane's plain slices.

import (
	"fmt"

	"aovlis/internal/mat"
)

// FusedCell is the inference-only form of an LSTMCell.
type FusedCell struct {
	CtxDim, Hidden int
	// W and B are the cell's gate parameters, order i, f, c, o: the
	// ParamSet's own CtxDim × Hidden weight and 1 × Hidden bias headers, read
	// at every step.
	W, B [4]*mat.Matrix
}

// Pack returns the fused form of the cell over its parameters in ps. It
// copies no weights — the form reads ps's matrices where they are — so it
// never goes stale and needs no refresh after a parameter write.
func (c *LSTMCell) Pack(ps *ParamSet) *FusedCell {
	fc := &FusedCell{CtxDim: c.CtxDim, Hidden: c.Hidden}
	for g := range gateOrder {
		fc.W[g], fc.B[g] = ps.Get(c.wNames[g]), ps.Get(c.bNames[g])
	}
	return fc
}

// preact writes the packed preactivations ctx·W_g + b_g of `lanes` stacked
// context rows into pre (lanes × 4·Hidden), gate g into columns
// g·Hidden … g·Hidden+Hidden−1 of every row.
func (fc *FusedCell) preact(pre, ctx []float64, lanes int) {
	h := fc.Hidden
	for g, w := range fc.W {
		mat.FwdGEMMBiasStrideInto(pre[g*h:], 4*h, ctx, lanes, w, fc.B[g].Data)
	}
}

// StepInto performs one fused LSTM step: pre (scratch, length 4·Hidden)
// receives the packed preactivations ctx·W + B, then the gate kernel writes
// the new hidden state into h and the new cell state into cNext. All
// buffers are caller-owned; the call allocates nothing.
func (fc *FusedCell) StepInto(h, cNext, pre, ctx, cPrev []float64) {
	if len(ctx) != fc.CtxDim || len(pre) != 4*fc.Hidden {
		panic(fmt.Sprintf("nn: fused step ctx has %d elements and pre %d, want %d and %d", len(ctx), len(pre), fc.CtxDim, 4*fc.Hidden))
	}
	fc.preact(pre, ctx, 1)
	mat.LSTMGatesInto(h, cNext, pre, cPrev)
}

// StepBatch performs one fused LSTM step over B stacked lanes: row b of
// ctx is lane b's gate context and row b of cPrev its previous cell state;
// the new hidden states land in h's rows and the new cell states in
// cNext's. pre (B × 4·Hidden) is scratch. Lane rows are computed with
// exactly the arithmetic of B StepInto calls (one ascending-k accumulator
// per output, bias after the full GEMM, the gate kernel lane by lane), so a
// batch of B is bit-identical to B single steps.
func (fc *FusedCell) StepBatch(h, cNext, pre, ctx, cPrev *mat.Matrix) {
	lanes := ctx.Rows
	if ctx.Cols != fc.CtxDim {
		panic(fmt.Sprintf("nn: fused batch step ctx is %dx%d, want ctx dim %d", ctx.Rows, ctx.Cols, fc.CtxDim))
	}
	if h.Rows != lanes || cNext.Rows != lanes || pre.Rows != lanes || cPrev.Rows != lanes || pre.Cols != 4*fc.Hidden {
		panic(fmt.Sprintf("nn: fused batch step lanes h=%d cNext=%d pre=%dx%d cPrev=%d, want %d lanes, pre %d wide",
			h.Rows, cNext.Rows, pre.Rows, pre.Cols, cPrev.Rows, lanes, 4*fc.Hidden))
	}
	fc.preact(pre.Data, ctx.Data, lanes)
	mat.LSTMGatesBatchInto(h, cNext, pre, cPrev)
}

// FusedDense is the inference-only form of a Dense layer.
type FusedDense struct {
	In, Out int
	Act     Activation
	W, B    *mat.Matrix // the ParamSet's own In × Out weight and 1 × Out bias headers
}

// Pack returns the fused form of the layer over its parameters in ps; like
// LSTMCell.Pack it copies nothing.
func (d *Dense) Pack(ps *ParamSet) *FusedDense {
	return &FusedDense{In: d.In, Out: d.Out, Act: d.Act, W: ps.Get(d.wName), B: ps.Get(d.bName)}
}

// ApplyBatch computes act(x·W + B) for B stacked input rows, writing lane
// b's activation into dst's row b; pre (B × Out) is scratch — the fused,
// allocation-free form of Dense.Apply, row-wise independent of B.
func (fd *FusedDense) ApplyBatch(dst, pre, x *mat.Matrix) {
	lanes := x.Rows
	if x.Cols != fd.In {
		panic(fmt.Sprintf("nn: fused batch apply x is %dx%d, want in dim %d", x.Rows, x.Cols, fd.In))
	}
	if dst.Rows != lanes || pre.Rows != lanes {
		panic(fmt.Sprintf("nn: fused batch apply lanes dst=%d pre=%d, want %d", dst.Rows, pre.Rows, lanes))
	}
	mat.FwdGEMMBiasInto(pre.Data, x.Data, lanes, fd.W, nil, fd.B.Data)
	for b := 0; b < lanes; b++ {
		fd.activateRow(dst.Row(b), pre.Row(b))
	}
}

// activateRow applies the layer activation to one preactivation row.
func (fd *FusedDense) activateRow(dst, pre []float64) {
	switch fd.Act {
	case Linear:
		copy(dst, pre)
	case SigmoidAct:
		mat.VecSigmoidInto(dst, pre)
	case TanhAct:
		mat.VecTanhInto(dst, pre)
	case ReLUAct:
		mat.VecReLUInto(dst, pre)
	case SoftmaxAct:
		mat.SoftmaxInto(dst, pre)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", fd.Act))
	}
}
