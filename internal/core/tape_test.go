package core

import (
	"sync"

	"aovlis/internal/ad"
	"aovlis/internal/mat"
	"aovlis/internal/nn"
)

// The whole-step autodiff tape the engines replaced: forward recurrence,
// decoders, loss and Backward all recorded node by node on internal/ad. No
// production path runs it; it is the golden reference the equivalence tests
// hold InferPlan and TrainPlan to, bit for bit, and the baseline of
// BenchmarkTrainStepTape/BenchmarkPredictIntoTape.

// tapeRefs holds each model's binding to its reference tape, made on first
// use.
var tapeRefs sync.Map // *Model → *nn.Binding

// begin starts one pass on the model's reference tape. Everything recorded
// in the previous pass is recycled, so callers must have copied any results
// out already.
func (m *Model) begin() (*ad.Tape, *nn.Binding) {
	v, ok := tapeRefs.Load(m)
	if !ok {
		v, _ = tapeRefs.LoadOrStore(m, m.ps.Bind(ad.NewTape()))
	}
	b := v.(*nn.Binding)
	b.Tape().Reset()
	b.Rebind()
	return b.Tape(), b
}

// forward records the coupled recurrence over one sample on the reference
// tape and returns the decoded predictions plus the final hidden nodes.
func (m *Model) forward(tp *ad.Tape, b *nn.Binding, s *Sample) (fhat, ahat, hFinal, gFinal *ad.Node) {
	h, cI := m.cellI.ZeroState(tp)
	g, cA := m.cellA.ZeroState(tp)
	for t := 0; t < m.cfg.SeqLen; t++ {
		f := tp.ConstVector(s.ActionSeq[t])
		a := tp.ConstVector(s.AudienceSeq[t])
		var ctxI, ctxA *ad.Node
		switch m.cfg.Coupling {
		case CouplingFull:
			ctxI = tp.ConcatCols(h, g, f)
			ctxA = tp.ConcatCols(h, g, a)
		case CouplingOneWay:
			ctxI = tp.ConcatCols(h, f)
			ctxA = tp.ConcatCols(h, g, a)
		case CouplingNone:
			ctxI = tp.ConcatCols(h, f)
			ctxA = tp.ConcatCols(g, a)
		}
		// Both layers read the *previous* hidden states of each other
		// (Eq. 5 and Eq. 10), so h and g update simultaneously.
		hNext, cINext := m.cellI.Step(b, ctxI, cI)
		gNext, cANext := m.cellA.Step(b, ctxA, cA)
		h, cI, g, cA = hNext, cINext, gNext, cANext
	}
	fhat = m.decI.Apply(b, h)
	ahat = m.decA.Apply(b, g)
	return fhat, ahat, h, g
}

// loss builds the joint training objective (Eq. 13) on the tape:
// l(I,A) = ω·Loss(Î,I) + (1−ω)·MSE(Â,A).
func (m *Model) loss(tp *ad.Tape, fhat, ahat *ad.Node, s *Sample) *ad.Node {
	ft := tp.Arena().Wrap(1, len(s.ActionTarget), s.ActionTarget)
	at := tp.Arena().Wrap(1, len(s.AudienceTarget), s.AudienceTarget)
	lI := nn.ActionLoss(m.cfg.Loss, tp, ft, fhat)
	lA := nn.MSELoss(tp, ahat, at)
	return tp.Add(tp.Scale(m.cfg.Omega, lI), tp.Scale(1-m.cfg.Omega, lA))
}

// predictTapeInto is prediction on the reference tape.
func (m *Model) predictTapeInto(s *Sample, fhat, ahat []float64) error {
	if err := s.validate(m.cfg); err != nil {
		return err
	}
	tp, b := m.begin()
	fn, an, _, _ := m.forward(tp, b, s)
	copy(fhat, fn.Value.Data)
	copy(ahat, an.Value.Data)
	return nil
}

// hiddenTape is Hidden on the reference tape.
func (m *Model) hiddenTape(s *Sample) []float64 {
	tp, b := m.begin()
	_, _, h, _ := m.forward(tp, b, s)
	return append([]float64(nil), h.Value.Data...)
}

// trainStepTape is the training step on the reference tape: forward, loss
// and backward all recorded on it, then the same optimiser step.
func (m *Model) trainStepTape(s *Sample) (float64, error) {
	if err := m.validateTrain(s); err != nil {
		return 0, err
	}
	tp, b := m.begin()
	fhat, ahat, _, _ := m.forward(tp, b, s)
	loss := m.loss(tp, fhat, ahat, s)
	tp.Backward(loss)
	grads := make([]*mat.Matrix, len(m.ps.Names()))
	b.GradsFlatInto(grads)
	m.opt.StepFlat(m.ps, grads)
	return ad.Scalar(loss), nil
}
