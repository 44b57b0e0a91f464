package nn

// Gate-fused, tape-free inference forms of the layers. An LSTMCell trains
// through four separate ctxDim×H gate weight matrices on the autodiff tape;
// for prediction those four matmuls collapse into a single GEMV against one
// packed gate matrix (gate order i, f, c, o) followed by the fused
// elementwise gate kernel. A packed layer keeps its weights in ONE layout,
// row-major W (ctxDim×4H for a cell): row k holds every gate output's
// weight at context element k, so the SIMD kernels load 4-8 output columns
// per vector instruction and the portable loop walks the same rows
// (mat.FwdGEMMBiasInto). Every output accumulates over k in ascending order
// with no FMA contraction, so kernel choice never changes a float bit
// relative to the tape forward pass (see mat/batch.go and the golden
// equivalence tests in internal/core). A packed layer therefore costs its
// parameters' bytes and no more.
//
// Packed layers are immutable snapshots of a ParamSet: training keeps
// updating the unpacked per-gate matrices, and the owner (core.InferPlan)
// repacks — via the allocation-free PackInto — when ParamSet.Version moves.
// A FusedCell/FusedDense value is a header: its W and B may be the very
// arrays another model's header points at (core.InferPlan shares them across
// model clones), in which case the owner packs into fresh arrays with Pack
// and never into these with PackInto. What is per model — FastMath — lives
// in the header.
//
// StepBatch/ApplyBatch are what core.InferPlan runs: B stacked context
// rows (its lanes) go through one GEMM per layer step instead of B GEMVs,
// which is what lets a shard worker score B pending segments at a
// per-segment cost below one-at-a-time scoring (ARCHITECTURE.md §8).
// StepInto is the same step over one lane's plain slices.

import (
	"fmt"

	"aovlis/internal/mat"
)

// FusedCell is the inference-only packed form of an LSTMCell.
type FusedCell struct {
	CtxDim, Hidden int
	// W is the packed gate weight in row-major CtxDim × 4·Hidden layout
	// (gate order i,f,c,o): row k holds every gate output's weight at
	// context element k, columns g·Hidden … g·Hidden+Hidden−1 gate g's.
	W *mat.Matrix
	// B is the packed 4·Hidden gate bias (same order).
	B []float64
	// FastMath selects the polynomial fast-math gate kernel
	// (mat.LSTMGatesFastInto) instead of the bit-exact one — a runtime
	// mode set by the plan owner (core.InferPlan.SetFastMath), not part
	// of the packed parameters: PackInto never touches it, so repacking
	// after an online update keeps the mode.
	FastMath bool
}

// Pack compiles the cell's current parameters in ps into a new FusedCell.
func (c *LSTMCell) Pack(ps *ParamSet) *FusedCell {
	fc := &FusedCell{
		CtxDim: c.CtxDim,
		Hidden: c.Hidden,
		W:      mat.New(c.CtxDim, 4*c.Hidden),
		B:      make([]float64, 4*c.Hidden),
	}
	c.PackInto(ps, fc)
	return fc
}

// PackInto overwrites dst (shaped by a previous Pack of the same cell) with
// the cell's current parameter values. It performs no allocations, so
// repacking after an online update is free of GC traffic.
func (c *LSTMCell) PackInto(ps *ParamSet, dst *FusedCell) {
	if dst.CtxDim != c.CtxDim || dst.Hidden != c.Hidden {
		panic(fmt.Sprintf("nn: PackInto cell %s shape %dx%d, dst %dx%d",
			c.Name, c.CtxDim, c.Hidden, dst.CtxDim, dst.Hidden))
	}
	h := c.Hidden
	for gi := range gateOrder {
		w := ps.Get(c.wNames[gi]) // CtxDim × Hidden
		for k := 0; k < c.CtxDim; k++ {
			copy(dst.W.Row(k)[gi*h:(gi+1)*h], w.Data[k*h:(k+1)*h])
		}
		copy(dst.B[gi*h:(gi+1)*h], ps.Get(c.bNames[gi]).Data)
	}
}

// StepInto performs one fused LSTM step: pre (scratch, length 4·Hidden)
// receives the packed preactivations ctx·W + B, then the gate kernel writes
// the new hidden state into h and the new cell state into cNext. All
// buffers are caller-owned; the call allocates nothing.
func (fc *FusedCell) StepInto(h, cNext, pre, ctx, cPrev []float64) {
	if len(ctx) != fc.CtxDim {
		panic(fmt.Sprintf("nn: fused step ctx has %d elements, want %d", len(ctx), fc.CtxDim))
	}
	mat.FwdGEMMBiasInto(pre, ctx, 1, fc.W, nil, fc.B)
	if fc.FastMath {
		mat.LSTMGatesFastInto(h, cNext, pre, cPrev)
	} else {
		mat.LSTMGatesInto(h, cNext, pre, cPrev)
	}
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
	if h.Rows != lanes || cNext.Rows != lanes || pre.Rows != lanes || cPrev.Rows != lanes {
		panic(fmt.Sprintf("nn: fused batch step lanes h=%d cNext=%d pre=%d cPrev=%d, want %d",
			h.Rows, cNext.Rows, pre.Rows, cPrev.Rows, lanes))
	}
	mat.FwdGEMMBiasInto(pre.Data, ctx.Data, lanes, fc.W, nil, fc.B)
	if fc.FastMath {
		mat.LSTMGatesBatchFastInto(h, cNext, pre, cPrev)
	} else {
		mat.LSTMGatesBatchInto(h, cNext, pre, cPrev)
	}
}

// FusedDense is the inference-only snapshot of a Dense layer.
type FusedDense struct {
	In, Out int
	Act     Activation
	W       *mat.Matrix // In × Out (row-major weights)
	B       []float64   // Out
}

// Pack compiles the layer's current parameters in ps into a new FusedDense.
func (d *Dense) Pack(ps *ParamSet) *FusedDense {
	fd := &FusedDense{
		In: d.In, Out: d.Out, Act: d.Act,
		W: mat.New(d.In, d.Out),
		B: make([]float64, d.Out),
	}
	d.PackInto(ps, fd)
	return fd
}

// PackInto overwrites dst with the layer's current parameter values without
// allocating.
func (d *Dense) PackInto(ps *ParamSet, dst *FusedDense) {
	if dst.In != d.In || dst.Out != d.Out {
		panic(fmt.Sprintf("nn: PackInto dense %s shape %dx%d, dst %dx%d", d.Name, d.In, d.Out, dst.In, dst.Out))
	}
	copy(dst.W.Data, ps.Get(d.wName).Data) // In × Out, already the packed layout
	copy(dst.B, ps.Get(d.bName).Data)
	dst.Act = d.Act
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
	mat.FwdGEMMBiasInto(pre.Data, x.Data, lanes, fd.W, nil, fd.B)
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
