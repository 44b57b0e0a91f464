package core

// The tape-free inference engine. Training needs gradients; prediction
// only needs the forward arithmetic, so a Model compiles its layers into an
// InferPlan: gate-fused layers (nn.FusedCell / nn.FusedDense) plus
// preallocated lane-stacked state. A lane is one independent q-step window;
// Run(lanes) carries all of them through the recurrence together, one GEMM
// per gate over the stacked context rows and one fused gate kernel per LSTM
// step, with zero heap allocations. A single prediction is the one-lane call
// of the same body.
//
// Bit contract: every output is one ascending-k accumulator per (lane,
// output) with the bias added after the full product, and each lane reads
// only its own rows, so a lane's prediction does not depend on how many
// lanes ran beside it and equals the tape forward pass bit for bit
// (TestInferPlanGoldenEquivalence, TestPredictBatchBitIdentical).
//
// Weights: the plan holds none. Its fused layers read the model's
// parameter matrices through the ParamSet's own headers, so every parameter
// mutation (optimiser step, merge, load) is what the next prediction
// reads — there is no packed snapshot to go stale and nothing to repack.
// A clone's plan reads the clone's headers, which alias the source's arrays
// until one side writes (nn.ParamSet.Clone); a plan costs its lane state.
//
// An InferPlan reuses its buffers across calls and is not safe for
// concurrent use; it is confined wherever its owning model is.

import (
	"fmt"

	"aovlis/internal/mat"
	"aovlis/internal/nn"
)

// ctxSrc names one part of a cell's gate-context concatenation: either the
// previous-step hidden state of a stream or the current input of a stream.
// The concat order mirrors the tape forward pass's ConcatCols exactly.
type ctxSrc struct {
	hidden bool // previous hidden state (true) or current input (false)
	index  int  // stream index
}

// planSpec declares one coupled stream of a model: its cell, decoder,
// gate-context layout and the reconstruction loss it trains under (the
// training engine's concern; prediction ignores it). A layout may couple
// any number of streams; the CLSTM's two come from Model.specs.
type planSpec struct {
	cell *nn.LSTMCell
	dec  *nn.Dense
	ctx  []ctxSrc
	loss nn.LossKind
}

// planStream is the compiled runtime form of a planSpec: the fused layers
// and the stream's lane-stacked state (row l of every matrix is lane l).
type planStream struct {
	cell *nn.FusedCell
	dec  *nn.FusedDense
	ctx  []ctxSrc

	// h/c are the live recurrent state; hNext/cNext receive the
	// simultaneous update and are swapped in after every stream has read
	// the previous step's state.
	h, c, hNext, cNext *mat.Matrix
	ctxBuf             *mat.Matrix // lanes × cell.CtxDim
	pre                *mat.Matrix // lanes × 4·cell.Hidden packed preactivations
	out, decPre        *mat.Matrix // lanes × dec.Out predictions and their preactivations

	// seqs[l] is lane l's input sequence for this stream and outs[l] the
	// caller's output buffer: bound before Run, dropped by it.
	seqs [][][]float64
	outs [][]float64
}

// state lists the stream's lane matrices.
func (st *planStream) state() [8]*mat.Matrix {
	return [8]*mat.Matrix{st.h, st.c, st.hNext, st.cNext, st.ctxBuf, st.pre, st.out, st.decPre}
}

// allocLanes gives the stream state for capLanes lanes.
func (st *planStream) allocLanes(capLanes int) {
	hn := st.cell.Hidden
	st.h = mat.New(capLanes, hn)
	st.c = mat.New(capLanes, hn)
	st.hNext = mat.New(capLanes, hn)
	st.cNext = mat.New(capLanes, hn)
	st.ctxBuf = mat.New(capLanes, st.cell.CtxDim)
	st.pre = mat.New(capLanes, 4*hn)
	st.out = mat.New(capLanes, st.dec.Out)
	st.decPre = mat.New(capLanes, st.dec.Out)
	st.seqs = make([][][]float64, capLanes)
	st.outs = make([][]float64, capLanes)
}

// InferPlan is a compiled, forward-only view of a model's parameters.
type InferPlan struct {
	seqLen   int
	capLanes int
	streams  []planStream
}

// compileInferPlan fuses the specs' layers over ps and allocates state for
// one lane. Compilation and reserve are the only allocating phases of the
// engine; Run is allocation-free.
func compileInferPlan(ps *nn.ParamSet, seqLen int, specs []planSpec) *InferPlan {
	p := &InferPlan{seqLen: seqLen, capLanes: 1, streams: make([]planStream, len(specs))}
	for i, sp := range specs {
		st := &p.streams[i]
		st.cell, st.dec, st.ctx = sp.cell.Pack(ps), sp.dec.Pack(ps), sp.ctx
		st.allocLanes(p.capLanes)
	}
	return p
}

// reserve makes room for `lanes` lanes. Capacity starts at one — a model
// that only ever predicts single segments never holds more — and grows by
// reallocation, at least doubling; a plan never shrinks, Run just views
// the first rows.
func (p *InferPlan) reserve(lanes int) {
	if lanes <= p.capLanes {
		return
	}
	p.capLanes = max(lanes, 2*p.capLanes)
	for i := range p.streams {
		p.streams[i].allocLanes(p.capLanes)
	}
}

// Run executes the fused forward recurrence over the first `lanes` lanes
// (at most the reserved capacity): stream k's seqs[l][t] is lane l's input
// feature at step t, and its outs[l] receives lane l's decoded prediction.
// Shapes are the caller's responsibility (models validate before binding).
// Run allocates nothing and drops the bound slices before returning.
func (p *InferPlan) Run(lanes int) {
	for i := range p.streams {
		st := &p.streams[i]
		// View the first `lanes` rows of the full-capacity backing arrays.
		for _, m := range st.state() {
			m.Rows = lanes
			m.Data = m.Data[:lanes*m.Cols]
		}
		st.h.Zero()
		st.c.Zero()
	}
	for t := 0; t < p.seqLen; t++ {
		for i := range p.streams {
			st := &p.streams[i]
			// Gate context, per lane: the same [h..., input] concatenation
			// the tape builds with ConcatCols, reading every stream's
			// PREVIOUS hidden state so all streams update simultaneously.
			for l := 0; l < lanes; l++ {
				row, off := st.ctxBuf.Row(l), 0
				for _, src := range st.ctx {
					from := &p.streams[src.index]
					part := from.seqs[l][t]
					if src.hidden {
						part = from.h.Row(l)
					}
					off += copy(row[off:], part)
				}
			}
			st.cell.StepBatch(st.hNext, st.cNext, st.pre, st.ctxBuf, st.c)
		}
		for i := range p.streams {
			st := &p.streams[i]
			st.h, st.hNext = st.hNext, st.h
			st.c, st.cNext = st.cNext, st.c
		}
	}
	for i := range p.streams {
		st := &p.streams[i]
		st.dec.ApplyBatch(st.out, st.decPre, st.h)
		for l := 0; l < lanes; l++ {
			copy(st.outs[l], st.out.Row(l))
			// Don't pin the caller's slices beyond the call.
			st.seqs[l], st.outs[l] = nil, nil
		}
	}
}

// specs builds the plan layout of the 2-stream CLSTM under its coupling
// mode: stream 0 is LSTM_I (action), stream 1 is LSTM_A (audience). The ctx
// orders mirror the ConcatCols calls of the reference tape (tape_test.go).
func (m *Model) specs() []planSpec {
	h0 := ctxSrc{hidden: true, index: 0}
	h1 := ctxSrc{hidden: true, index: 1}
	in0 := ctxSrc{index: 0}
	in1 := ctxSrc{index: 1}
	var ctxI, ctxA []ctxSrc
	switch m.cfg.Coupling {
	case CouplingFull:
		ctxI = []ctxSrc{h0, h1, in0}
		ctxA = []ctxSrc{h0, h1, in1}
	case CouplingOneWay:
		ctxI = []ctxSrc{h0, in0}
		ctxA = []ctxSrc{h0, h1, in1}
	case CouplingNone:
		ctxI = []ctxSrc{h0, in0}
		ctxA = []ctxSrc{h1, in1}
	default:
		panic(fmt.Sprintf("core: unknown coupling %d", m.cfg.Coupling))
	}
	return []planSpec{
		{cell: m.cellI, dec: m.decI, ctx: ctxI, loss: m.cfg.Loss},
		{cell: m.cellA, dec: m.decA, ctx: ctxA, loss: nn.LossL2}, // Eq. 13's MSE
	}
}
