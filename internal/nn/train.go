package nn

// The tape-free training form of an LSTMCell. FusedCell (fused.go) took
// prediction off the autodiff tape; TrainCell does the same for training:
// the forward recurrence keeps the activations backward needs, and the
// backward pass is the tape's BPTT derived by hand — the same floating-point
// operations in the same order per output element, so losses, gradients and
// therefore parameters match the tape bit for bit (golden-tested in
// internal/core). What changes is the work around the arithmetic: no node
// bookkeeping, no per-node matrices, the four gates' preactivation
// gradients packed in one row per step, and each weight gradient written
// once, summed over the whole window in registers
// (mat.GatesMatMulATStepsInto, the four gates in one call), instead of
// cleared and then updated by one rank-1 pass per step.
//
// Like FusedCell, a TrainCell reads the LIVE per-gate parameter matrices:
// they are row-major already, which is the layout the column-vectorised
// forward GEMV wants. The one derived layout — the transposed hidden-column
// block the input-gradient GEMM reads row-major — is refreshed at the start
// of each backward pass.

import (
	"fmt"

	"aovlis/internal/mat"
)

// TrainCell runs one LSTMCell forward and backward over a fixed window.
// The owner (core.TrainPlan) fills row t of Ctx and calls Step(t) for
// t = 0 … Steps−1, reads hidden states from H, and drives the backward
// pass with BeginBackward, BackStep(t) for t = Steps−1 … 0 and
// FinishBackward. Not safe for concurrent use.
type TrainCell struct {
	CtxDim, Hidden, Steps int
	// HidCols is how many leading context columns carry hidden states —
	// the only columns whose gradient anything consumes.
	HidCols int

	w, b       [4]*mat.Matrix // live gate parameters, order i, f, c, o
	wIdx, bIdx [4]int         // their registration indexes in the ParamSet

	// Forward state. H and c have Steps+1 rows: row 0 is the zero initial
	// state, row t+1 the state after step t. act holds each step's gate
	// activations σ(i), σ(f), tanh(c̃), σ(o) packed in one 4·Hidden row.
	Ctx   *mat.Matrix // Steps × CtxDim
	H     *mat.Matrix // (Steps+1) × Hidden
	c     *mat.Matrix // (Steps+1) × Hidden
	act   *mat.Matrix // Steps × 4·Hidden
	tanhC *mat.Matrix // Steps × Hidden

	// Backward state, allocated by the first BeginBackward so cells that
	// only ever run forward (drift detection on a serving model) never pay
	// for gradient storage.
	dpre   *mat.Matrix    // Steps × 4·Hidden preactivation gradients
	dW, dB [4]*mat.Matrix // parameter gradients
	dBrow  []float64      // the four dB packed in one 4·Hidden row (dB[g] view it)
	carry  []float64      // ∂L/∂c_{t−1} contribution of step t's forget path
	dctx   []float64      // HidCols: gradient of the current step's hidden context
	gemv   []float64      // HidCols: one gate's share of dctx, where per-gate kernels run
	// wHid[g] views the first HidCols rows of w[g] (HidCols × Hidden) and
	// wHidT[g] is its transpose (Hidden × HidCols), the row-major weight of
	// the input-gradient product dpre_g·W_gᵀ. Both are re-derived by every
	// BeginBackward: w[g].Data moves when a sharing ParamSet detaches.
	wHid, wHidT [4]*mat.Matrix
}

// NewTrainCell builds the training form of cell over its parameters in ps
// for windows of the given number of steps.
func NewTrainCell(ps *ParamSet, cell *LSTMCell, steps, hidCols int) *TrainCell {
	if hidCols < 0 || hidCols > cell.CtxDim {
		panic(fmt.Sprintf("nn: train cell %s: %d hidden columns in a %d-wide context", cell.Name, hidCols, cell.CtxDim))
	}
	h := cell.Hidden
	c := &TrainCell{
		CtxDim: cell.CtxDim, Hidden: h, Steps: steps, HidCols: hidCols,
		Ctx:   mat.New(steps, cell.CtxDim),
		H:     mat.New(steps+1, h),
		c:     mat.New(steps+1, h),
		act:   mat.New(steps, 4*h),
		tanhC: mat.New(steps, h),
	}
	for g := range gateOrder {
		c.w[g], c.wIdx[g] = ps.Get(cell.wNames[g]), ps.indexOf(cell.wNames[g])
		c.b[g], c.bIdx[g] = ps.Get(cell.bNames[g]), ps.indexOf(cell.bNames[g])
	}
	return c
}

// Step runs forward step t: Ctx row t (filled by the caller) through the
// four gates' GEMV (one call) and the gate kernel into H and c row t+1.
func (c *TrainCell) Step(t int) {
	pre := c.act.Row(t)
	mat.GatesGEMVBiasInto(pre, c.Ctx.Row(t), &c.w, &c.b)
	mat.LSTMGatesTrainInto(c.H.Row(t+1), c.c.Row(t+1), c.tanhC.Row(t), pre, c.c.Row(t))
}

// GradsFlatInto stores the cell's eight gradient matrices at their
// parameters' registration indexes in dst (see Binding.GradsFlatInto).
// The matrices exist from the first BeginBackward on; they are owned by the
// cell and rewritten by every backward pass.
func (c *TrainCell) GradsFlatInto(dst []*mat.Matrix) {
	for g := range c.dW {
		dst[c.wIdx[g]], dst[c.bIdx[g]] = c.dW[g], c.dB[g]
	}
}

func (c *TrainCell) allocBackward() {
	if c.dpre != nil {
		return
	}
	h := c.Hidden
	c.dpre = mat.New(c.Steps, 4*h)
	c.carry = make([]float64, h)
	c.dctx = make([]float64, c.HidCols)
	c.gemv = make([]float64, c.HidCols)
	c.dBrow = make([]float64, 4*h)
	for g := range c.w {
		c.dW[g] = mat.New(c.CtxDim, h)
		c.dB[g] = mat.FromSlice(1, h, c.dBrow[g*h:(g+1)*h])
		c.wHid[g] = &mat.Matrix{Rows: c.HidCols, Cols: h}
		c.wHidT[g] = mat.New(h, c.HidCols)
	}
}

// BeginBackward readies the cell for a backward pass over the window its
// last Steps forward steps recorded.
func (c *TrainCell) BeginBackward() {
	c.allocBackward()
	for j := range c.carry {
		c.carry[j] = 0
	}
	for j := range c.dBrow {
		c.dBrow[j] = 0
	}
	for g, w := range c.w {
		c.wHid[g].Data = w.Data[:c.HidCols*c.Hidden]
		mat.TransposeTo(c.wHidT[g], c.wHid[g])
	}
}

// BackStep backpropagates step t given dh = ∂L/∂h_t (read-only) and, when
// wantCtx, returns ∂L/∂ctx_t over the HidCols hidden columns (valid until
// the next BackStep). Call it for t = Steps−1 … 0: the bias gradients
// dB_g = Σ_t dpre_{g,t} accumulate here, from zero in that order — the order
// in which the tape's Backward reaches the steps.
func (c *TrainCell) BackStep(t int, dh []float64, wantCtx bool) []float64 {
	dpre := c.dpre.Row(t)
	mat.LSTMGatesBackInto(dpre, c.carry, dh, c.act.Row(t), c.tanhC.Row(t), c.c.Row(t))
	mat.VecAddInto(c.dBrow, dpre)
	if !wantCtx || c.HidCols == 0 {
		return nil
	}
	// ∂L/∂ctx = Σ_g dpre_g·W_gᵀ, gates in the tape's reverse order o, c, f, i,
	// each gate's product a complete ascending-k sum before it is added. The
	// tape adds the first to a zeroed gradient; a sum that starts at +0 is
	// never −0, so 0 + x is x and the output gate's product lands directly.
	mat.GatesGEMVTInto(c.dctx, c.gemv, dpre, &c.wHidT)
	return c.dctx
}

// FinishBackward turns the window's preactivation gradients into the weight
// gradients dW_g = Σ_t ctx_tᵀ·dpre_{g,t}, each element summed from zero over
// t descending — the four gates in one call.
func (c *TrainCell) FinishBackward() {
	mat.GatesMatMulATStepsInto(&c.dW, c.Ctx.Data, c.dpre.Data, c.Steps)
}
