package core

// The tape-free training engine, the twin of InferPlan (infer.go). It is
// compiled from the same planSpec/ctxSrc layout, for any number of coupled
// streams, and it runs three things the autodiff tape used to:
//
//   - the forward recurrence, always on the bit-exact gate kernel (the
//     fast-math mode is an inference-only trade), keeping per step what
//     backward needs — this alone is Hidden/HiddenInto;
//   - backpropagation through time, hand-derived per cell (nn.TrainCell)
//     and stitched across streams here in the tape's accumulation order;
//   - the hand-off to the optimiser as a flat gradient list.
//
// What stays on a tape is the head: decoders and loss, some twenty small
// nodes (< 3 % of a step) whose three loss kinds are not worth a hand
// derivation. The recurrence's final hidden states enter that tape as Var
// leaves, so its Backward yields ∂L/∂h_T per stream plus the decoder
// gradients, and BPTT takes over from there.
//
// The result is bit-identical to recording the whole step on the tape —
// same loss, same gradients, same parameters after the optimiser step —
// which TestTrainPlanGoldenEquivalence pins against the retained tape
// path (Model.trainStepTape). The plan reads the live parameters, so
// there is no staleness protocol; it is allocated lazily by the owning
// model's first training or Hidden call, and allocates nothing after its
// first step. Like the tape it is not safe for concurrent use.

import (
	"fmt"

	"aovlis/internal/ad"
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
	dec  *nn.Dense
	ctx  []ctxSrc
	// uses lists the contexts that read this stream's hidden state, in
	// DESCENDING stream order: the order the tape's Backward reaches their
	// ConcatCols nodes and so the order their gradients are summed.
	uses []hidUse
	hT   *mat.Matrix // 1×Hidden view of the final hidden state, the head's input
	dh   []float64   // ∂L/∂h_t of the step being backpropagated
	dctx []float64   // the cell's ∂L/∂ctx_t over its hidden columns
}

// TrainPlan is the compiled training engine of one model.
type TrainPlan struct {
	seqLen  int
	streams []trainStream

	tape  *ad.Tape
	bind  *nn.Binding // decoder parameters only
	hVars []*ad.Node  // this step's Var nodes over each stream's hT
	outs  []*ad.Node  // this step's decoded predictions

	// grads is the optimiser hand-off (nn.Adam.StepFlat): one entry per
	// parameter in registration order. The cells' entries are fixed
	// matrices; the decoders' are refreshed from the tape every step.
	grads []*mat.Matrix
}

func compileTrainPlan(ps *nn.ParamSet, seqLen int, specs []planSpec) *TrainPlan {
	p := &TrainPlan{
		seqLen:  seqLen,
		streams: make([]trainStream, len(specs)),
		tape:    ad.NewTape(),
		hVars:   make([]*ad.Node, len(specs)),
		outs:    make([]*ad.Node, len(specs)),
	}
	var decNames []string
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
		st.dec, st.ctx = sp.dec, sp.ctx
		st.hT = mat.FromSlice(1, sp.cell.Hidden, st.cell.H.Row(seqLen))
		st.dh = make([]float64, sp.cell.Hidden)
		w, b := sp.dec.ParamNames()
		decNames = append(decNames, w, b)
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
	p.bind = ps.Bind(p.tape, decNames...)
	p.grads = make([]*mat.Matrix, len(ps.Names()))
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
	return p.streams[k].hT.Data
}

// forward runs the recurrence, then records the decoder head on the plan's
// tape and returns it with each stream's decoded prediction node. The
// caller composes its loss on that tape and hands it to backward (training)
// or just reads it (evaluation). Nodes are valid until the next forward.
func (p *TrainPlan) forward(seqs [][][]float64) (*ad.Tape, []*ad.Node) {
	p.recur(seqs)
	p.tape.Reset()
	p.bind.Rebind()
	for i := range p.streams {
		st := &p.streams[i]
		p.hVars[i] = p.tape.Var(st.hT)
		p.outs[i] = st.dec.Apply(p.bind, p.hVars[i])
	}
	return p.tape, p.outs
}

// backward differentiates loss (composed on the tape forward returned)
// with respect to every parameter and returns the gradients laid out for
// nn.Adam.StepFlat. They are plan- and tape-owned: valid until the next
// forward.
func (p *TrainPlan) backward(loss *ad.Node) []*mat.Matrix {
	p.tape.Backward(loss)
	p.bind.GradsFlatInto(p.grads)
	for i := range p.streams {
		st := &p.streams[i]
		copy(st.dh, p.hVars[i].Grad.Data)
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
		// tape's order.
		for i := range p.streams {
			st := &p.streams[i]
			for j := range st.dh {
				st.dh[j] = 0
			}
			for _, u := range st.uses {
				for j, v := range p.streams[u.stream].dctx[u.off : u.off+len(st.dh)] {
					st.dh[j] += v
				}
			}
		}
	}
	for i := range p.streams {
		p.streams[i].cell.FinishBackward()
	}
	return p.grads
}
