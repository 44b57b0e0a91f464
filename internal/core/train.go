package core

// The tape-free training engine, the twin of InferPlan (infer.go). It is
// compiled from the same planSpec/ctxSrc layout, for any number of coupled
// streams, and it runs everything the autodiff tape used to:
//
//   - the forward recurrence, on the bit-exact gate kernel the inference
//     plan runs too, keeping per step what backward needs — this alone is
//     Hidden/HiddenInto;
//   - the head: each stream's decoder and reconstruction loss, forward and
//     backward (nn.TrainHead);
//   - backpropagation through time, hand-derived per cell (nn.TrainCell)
//     and stitched across streams here in the tape's accumulation order;
//   - the hand-off to the optimiser as a flat gradient list.
//
// Nothing in a step touches internal/ad: the head was the last part on a
// tape, some twenty small nodes that measured 11.6 % of a step, most of it
// the tape's node and matrix bookkeeping (BENCH.md §17), and is
// hand-derived like the cells.
//
// The result is bit-identical to recording the whole step on the tape —
// same loss, same gradients, same parameters after the optimiser step —
// which TestTrainPlanGoldenEquivalence pins against the whole-step tape
// kept as the test-only reference (tape_test.go). The plan reads the live
// parameters, so there is no staleness protocol; it is allocated lazily by
// the owning model's first training or Hidden call, and allocates nothing
// after its first step. It is not safe for concurrent use.

import (
	"fmt"

	"aovlis/internal/mat"
	"aovlis/internal/nn"
)

// hidUse records one place a stream's hidden state is consumed: columns
// [off, off+Hidden) of stream's gate context.
type hidUse struct {
	stream, off int
}

type trainStream struct {
	cell *nn.TrainCell
	head *nn.TrainHead
	ctx  []ctxSrc
	// uses lists the contexts that read this stream's hidden state, in
	// DESCENDING stream order: the order the tape's Backward reaches their
	// ConcatCols nodes and so the order their gradients are summed.
	uses []hidUse
	hT   []float64 // view of the final hidden state, the head's input
	dh   []float64 // ∂L/∂h_t of the step being backpropagated
	dctx []float64 // the cell's ∂L/∂ctx_t over its hidden columns
}

// TrainPlan is the compiled training engine of one model.
type TrainPlan struct {
	seqLen  int
	streams []trainStream

	// grads is the optimiser hand-off (nn.Adam.StepFlat): one entry per
	// parameter in registration order, each a matrix its cell or head owns
	// and rewrites every backward pass.
	grads []*mat.Matrix
}

func compileTrainPlan(ps *nn.ParamSet, seqLen int, specs []planSpec) *TrainPlan {
	p := &TrainPlan{
		seqLen:  seqLen,
		streams: make([]trainStream, len(specs)),
		grads:   make([]*mat.Matrix, len(ps.Names())),
	}
	for i, sp := range specs {
		// Hidden parts lead every context (Model.specs), so the columns
		// backward needs a gradient for are a prefix.
		hidCols, sawInput := 0, false
		for _, src := range sp.ctx {
			if src.hidden && sawInput {
				panic(fmt.Sprintf("core: stream %d context has a hidden part after an input", i))
			}
			if src.hidden {
				hidCols += specs[src.index].cell.Hidden
			}
			sawInput = !src.hidden
		}
		st := &p.streams[i]
		st.cell = nn.NewTrainCell(ps, sp.cell, seqLen, hidCols)
		st.head, st.ctx = nn.NewTrainHead(ps, sp.dec, sp.loss), sp.ctx
		st.hT = st.cell.H.Row(seqLen)
		st.dh = make([]float64, sp.cell.Hidden)
	}
	for c := len(specs) - 1; c >= 0; c-- {
		off := 0
		for _, src := range specs[c].ctx {
			if !src.hidden {
				break
			}
			p.streams[src.index].uses = append(p.streams[src.index].uses, hidUse{stream: c, off: off})
			off += specs[src.index].cell.Hidden
		}
	}
	return p
}

// recur runs the forward recurrence over one window: seqs[k][t] is stream
// k's input at step t. Afterwards stream k's hidden state after step t is
// row t+1 of its cell's H.
func (p *TrainPlan) recur(seqs [][][]float64) {
	for t := 0; t < p.seqLen; t++ {
		for i := range p.streams {
			st := &p.streams[i]
			// The same [h..., input] concatenation as InferPlan.Run; every
			// stream reads row t (the PREVIOUS states) and writes row t+1,
			// so the update is simultaneous.
			row, off := st.cell.Ctx.Row(t), 0
			for _, src := range st.ctx {
				part := seqs[src.index][t]
				if src.hidden {
					part = p.streams[src.index].cell.H.Row(t)
				}
				off += copy(row[off:], part)
			}
			st.cell.Step(t)
		}
	}
}

// hidden runs the recurrence and returns stream k's final hidden state
// (plan-owned: valid until the next call into the plan).
func (p *TrainPlan) hidden(seqs [][][]float64, k int) []float64 {
	p.recur(seqs)
	return p.streams[k].hT
}

// forward runs the recurrence, then every stream's decoder on its final
// hidden state. The caller takes each stream's reconstruction loss with
// loss, composes its objective from them and — to train — hands the
// objective's derivatives back to backward.
func (p *TrainPlan) forward(seqs [][][]float64) {
	p.recur(seqs)
	for i := range p.streams {
		st := &p.streams[i]
		st.head.Forward(st.hT)
	}
}

// loss returns stream k's reconstruction loss of the last forward against
// target (read again by backward).
func (p *TrainPlan) loss(k int, target []float64) float64 {
	return p.streams[k].head.Loss(target)
}

// backward differentiates the objective with respect to every parameter,
// given dLoss[k] = ∂objective/∂(stream k's loss) for the losses taken since
// the last forward, and returns the gradients laid out for
// nn.Adam.StepFlat. They are plan-owned: valid until the next backward.
func (p *TrainPlan) backward(dLoss []float64) []*mat.Matrix {
	for i := range p.streams {
		st := &p.streams[i]
		// ∂L/∂h_T comes out of the head; BPTT takes over from there.
		copy(st.dh, st.head.Backward(dLoss[i]))
		st.head.GradsFlatInto(p.grads)
		st.cell.BeginBackward()
		st.cell.GradsFlatInto(p.grads)
	}
	for t := p.seqLen - 1; t >= 0; t-- {
		// Step 0's context holds only the constant zero state and inputs.
		wantCtx := t > 0
		for i := range p.streams {
			st := &p.streams[i]
			st.dctx = st.cell.BackStep(t, st.dh, wantCtx)
		}
		if !wantCtx {
			break
		}
		// ∂L/∂h_{t−1}: every context that read it, summed from zero in the
		// tape's order. No context gradient is ever −0 (it is a sum started
		// at +0), so the first, 0 + x, is a copy.
		for i := range p.streams {
			st := &p.streams[i]
			if len(st.uses) == 0 {
				for j := range st.dh {
					st.dh[j] = 0
				}
				continue
			}
			for n, u := range st.uses {
				src := p.streams[u.stream].dctx[u.off : u.off+len(st.dh)]
				if n == 0 {
					copy(st.dh, src)
				} else {
					mat.VecAddInto(st.dh, src)
				}
			}
		}
	}
	for i := range p.streams {
		p.streams[i].cell.FinishBackward()
	}
	return p.grads
}
