package core

import (
	"fmt"
	"math/rand"
	"testing"

	"aovlis/internal/ad"
	"aovlis/internal/mat"
	"aovlis/internal/nn"
)

// The two engines agree on the recurrence. The updater's drift check reads
// LSTM_I's final hidden state; when the window was just scored on the exact
// kernels, the lane set the detector holds already has that state
// (Model.PredictWindows, Lanes.Hidden), and the detector hands it over
// instead of running the TrainPlan's recurrence a second time. That is only
// sound if the two are the same bits, in every lane of every batch,
// whatever the plan has been through.

// holdWindows borrows a lane set of m, lays rows at … at+q+B−2 of the
// series out on it and predicts the B windows they hold: lane l's is the
// window of BuildSamples' sample at+l. The caller reads the lanes and puts
// the set back.
func holdWindows(m *Model, actions, audience [][]float64, at, B int) (*Lanes, error) {
	q := m.cfg.SeqLen
	ls := m.TakeLanes()
	act, aud := ls.Rows(q + B - 1)
	for i := range act {
		copy(act[i], actions[at+i])
		copy(aud[i], audience[at+i])
	}
	if err := m.PredictWindows(ls, q, B); err != nil {
		ls.Put()
		return nil, err
	}
	return ls, nil
}

// TestPlanHiddenMatchesHiddenInto pins Lanes.Hidden to HiddenInto bit for
// bit under every coupling, at lane counts 1–16, on a fresh model and after
// each way its parameters move — a TrainStep, a CopyFrom (MergeReplace) and
// an Average (MergeAverage) — and pins that a lane outside the set's last
// run has no state.
func TestPlanHiddenMatchesHiddenInto(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const maxB = 16
	for _, coupling := range []Coupling{CouplingFull, CouplingOneWay, CouplingNone} {
		t.Run(coupling.String(), func(t *testing.T) {
			cfg := randomBatchConfig(rng, coupling)
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			other, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			actions, audience := goldenSeries(cfg.SeqLen+maxB+8, cfg.ActionDim, cfg.AudienceDim, rng.Int63())
			samples, err := BuildSamples(actions, audience, cfg.SeqLen)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, cfg.HiddenI)
			check := func(phase string) {
				t.Helper()
				for B := 1; B <= maxB; B++ {
					at := B % 5
					ls, err := holdWindows(m, actions, audience, at, B)
					if err != nil {
						t.Fatal(err)
					}
					for l := 0; l < B; l++ {
						got := ls.Hidden(l)
						if err := m.HiddenInto(&samples[at+l], want); err != nil {
							t.Fatal(err)
						}
						if !identicalBits(got, want) {
							t.Fatalf("%s: B=%d lane %d: plan %x, HiddenInto %x", phase, B, l, bitsOf(got), bitsOf(want))
						}
					}
					if ls.Hidden(B) != nil || ls.Hidden(-1) != nil {
						t.Fatalf("%s: B=%d run offers a state for lane %d or -1", phase, B, B)
					}
					ls.Put()
				}
			}
			check("fresh")
			for s := 0; s < 3; s++ {
				if _, err := m.TrainStep(&samples[s]); err != nil {
					t.Fatal(err)
				}
			}
			check("after TrainStep")
			if _, err := other.TrainStep(&samples[4]); err != nil {
				t.Fatal(err)
			}
			if err := m.Params().CopyFrom(other.Params()); err != nil {
				t.Fatal(err)
			}
			check("after CopyFrom")
			if _, err := other.TrainStep(&samples[5]); err != nil {
				t.Fatal(err)
			}
			if err := m.Params().Average(other.Params(), 0.3); err != nil {
				t.Fatal(err)
			}
			check("after Average")
		})
	}
}

// TestServingModelNeverCompilesTrainPlan pins what the handover saves: a
// model that only predicts on the exact kernels, and reads its states from
// the lane set it holds, never builds the training engine.
func TestServingModelNeverCompilesTrainPlan(t *testing.T) {
	cfg := randomBatchConfig(rand.New(rand.NewSource(79)), CouplingFull)
	tmpl, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	actions, audience := goldenSeries(cfg.SeqLen+4, cfg.ActionDim, cfg.AudienceDim, 3)
	samples, err := BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	m := tmpl.Clone()
	fhat, ahat := make([]float64, cfg.ActionDim), make([]float64, cfg.AudienceDim)
	for i := range samples {
		if err := m.PredictInto(&samples[i], fhat, ahat); err != nil {
			t.Fatal(err)
		}
		ls, err := holdWindows(m, actions, audience, i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ls.Hidden(0) == nil {
			t.Fatal("an exact plan offers no state")
		}
		ls.Put()
	}
	if m.tplan != nil {
		t.Fatal("a predicting model compiled a TrainPlan")
	}
}

// TestThreeStreamPlansMatchTape runs one K = 3 layout through both engines
// and the reference tape: every stream's final hidden state from InferPlan
// equals TrainPlan's in every lane, the plan's decoded outputs equal the
// tape's decoders applied to it, and TrainPlan's loss and gradients equal
// the whole step recorded on the tape. Three streams couple unevenly —
// stream 0 reads every state, stream 1 the first two, stream 2 the last two
// — and train under the three losses, so the cross-stream gradient sums
// have two and three terms.
func TestThreeStreamPlansMatchTape(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const q = 4
	in := []int{5, 4, 6}
	hid := []int{6, 4, 5}
	h := func(k int) ctxSrc { return ctxSrc{hidden: true, index: k} }
	x := func(k int) ctxSrc { return ctxSrc{index: k} }
	ctx := [][]ctxSrc{{h(0), h(1), h(2), x(0)}, {h(0), h(1), x(1)}, {h(1), h(2), x(2)}}
	acts := []nn.Activation{nn.SoftmaxAct, nn.Linear, nn.SoftmaxAct}
	losses := []nn.LossKind{nn.LossJS, nn.LossL2, nn.LossKL}
	weights := []float64{0.5, 0.3, 0.2}

	ps := nn.NewParamSet()
	specs := make([]planSpec, 3)
	for k := range specs {
		width := in[k]
		for _, src := range ctx[k] {
			if src.hidden {
				width += hid[src.index]
			}
		}
		specs[k] = planSpec{
			cell: nn.NewLSTMCell(ps, fmt.Sprintf("cell%d", k), width, hid[k], rng),
			dec:  nn.NewDense(ps, fmt.Sprintf("dec%d", k), hid[k], in[k], acts[k], rng),
			ctx:  ctx[k],
			loss: losses[k],
		}
	}
	ip := compileInferPlan(ps, q, specs)
	tp := compileTrainPlan(ps, q, specs)

	// window draws one lane: per stream q inputs and a target; the softmax
	// streams' vectors lie on the simplex.
	window := func() (seqs [][][]float64, targets [][]float64) {
		draw := func(k int) []float64 {
			v := make([]float64, in[k])
			for i := range v {
				v[i] = rng.Float64()
			}
			if acts[k] == nn.SoftmaxAct {
				mat.Normalize(v)
			}
			return v
		}
		seqs = make([][][]float64, 3)
		for k := range seqs {
			for i := 0; i < q; i++ {
				seqs[k] = append(seqs[k], draw(k))
			}
			targets = append(targets, draw(k))
		}
		return seqs, targets
	}

	const maxB = 5
	ls := ip.newLanes(new(laneList))
	ls.reserve(maxB)
	for B := 1; B <= maxB; B++ {
		seqs := make([][][][]float64, B)
		targets := make([][][]float64, B)
		for l := 0; l < B; l++ {
			seqs[l], targets[l] = window()
			for k := range specs {
				ls.streams[k].seqs[l] = seqs[l][k]
			}
		}
		ip.Run(ls, B)
		for l := 0; l < B; l++ {
			tp.forward(seqs[l])
			var loss float64
			for k := range specs {
				if got, want := ls.streams[k].h.Row(l), tp.streams[k].hT; !identicalBits(got, want) {
					t.Fatalf("B=%d lane %d stream %d: InferPlan state %x, TrainPlan %x", B, l, k, bitsOf(got), bitsOf(want))
				}
				loss += float64(weights[k] * tp.loss(k, targets[l][k]))
			}
			grads := tp.backward(weights)

			tape := ad.NewTape()
			bind := ps.Bind(tape)
			preds := tapeSpecs(bind, specs, q, seqs[l])
			var obj *ad.Node
			for k, pred := range preds {
				if out := ls.streams[k].out.Row(l); !identicalBits(out, pred.Value.Data) {
					t.Fatalf("B=%d lane %d stream %d: InferPlan output %x, tape %x", B, l, k, bitsOf(out), bitsOf(pred.Value.Data))
				}
				term := tape.Scale(weights[k], nn.ActionLoss(losses[k], tape, mat.VectorOf(targets[l][k]), pred))
				if obj == nil {
					obj = term
				} else {
					obj = tape.Add(obj, term)
				}
			}
			if got := ad.Scalar(obj); got != loss {
				t.Fatalf("B=%d lane %d: TrainPlan loss %v, tape %v", B, l, loss, got)
			}
			tape.Backward(obj)
			want := make([]*mat.Matrix, len(ps.Names()))
			bind.GradsFlatInto(want)
			for i, name := range ps.Names() {
				if !identicalBits(grads[i].Data, want[i].Data) {
					t.Fatalf("B=%d lane %d: gradient of %s: TrainPlan %x, tape %x", B, l, name, bitsOf(grads[i].Data), bitsOf(want[i].Data))
				}
			}
		}
	}
}

// tapeSpecs records the layout's recurrence over one window on b's tape the
// way Model.forward records the CLSTM's: every stream's gate context is
// concatenated from the previous states before any stream steps, then each
// decoder reads its stream's final state. It returns the decoded
// predictions.
func tapeSpecs(b *nn.Binding, specs []planSpec, seqLen int, seqs [][][]float64) []*ad.Node {
	tp := b.Tape()
	hs := make([]*ad.Node, len(specs))
	cs := make([]*ad.Node, len(specs))
	for k, sp := range specs {
		hs[k], cs[k] = sp.cell.ZeroState(tp)
	}
	ctxs := make([]*ad.Node, len(specs))
	for t := 0; t < seqLen; t++ {
		for k, sp := range specs {
			parts := make([]*ad.Node, len(sp.ctx))
			for i, src := range sp.ctx {
				if src.hidden {
					parts[i] = hs[src.index]
				} else {
					parts[i] = tp.Const(mat.VectorOf(seqs[src.index][t]))
				}
			}
			ctxs[k] = tp.ConcatCols(parts...)
		}
		for k, sp := range specs {
			hs[k], cs[k] = sp.cell.Step(b, ctxs[k], cs[k])
		}
	}
	preds := make([]*ad.Node, len(specs))
	for k, sp := range specs {
		preds[k] = sp.dec.Apply(b, hs[k])
	}
	return preds
}
