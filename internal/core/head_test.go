package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aovlis/internal/ad"
	"aovlis/internal/mat"
	"aovlis/internal/nn"
)

// sameFloat is bit equality, with any NaN equal to any NaN: the edge cases
// below drive the losses into NaN on purpose, and which payload survives an
// add of two NaNs is the hardware's business.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s[%d]: head %v (%016X), tape %v (%016X)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestTrainHeadMatchesTape is the differential test of the hand-derived head
// (nn.TrainHead under TrainPlan) against the tape head it replaced: from the
// same final hidden states, decoders and Eq. 13 recorded on an autodiff tape.
// The loss, ∂L/∂h_T of both streams and the four decoder gradients must agree
// on Float64bits for every action loss, at both ends of ω (where one side's
// gradient is an exact zero) and inside, and for targets that are dense,
// one-hot, carry exact zeros (the p·ln p edge), or leave the simplex
// altogether (a negative entry: ln of it is NaN, and NaN must come out where
// the tape's did).
func TestTrainHeadMatchesTape(t *testing.T) {
	actions, audience := goldenSeries(24, 12, 5, 53)
	rng := rand.New(rand.NewSource(59))
	targets := map[string]func() (f, a []float64){
		"dense": func() (f, a []float64) {
			f, a = make([]float64, 12), make([]float64, 5)
			for i := range f {
				f[i] = rng.Float64()
			}
			mat.Normalize(f)
			for i := range a {
				a[i] = rng.NormFloat64()
			}
			return f, a
		},
		"one-hot": func() (f, a []float64) {
			f, a = make([]float64, 12), make([]float64, 5)
			f[rng.Intn(12)] = 1
			a[rng.Intn(5)] = 1
			return f, a
		},
		"exact zeros": func() (f, a []float64) {
			f, a = make([]float64, 12), make([]float64, 5)
			for i := range f {
				if i%3 == 0 {
					f[i] = rng.Float64()
				}
			}
			mat.Normalize(f)
			a[1], a[3] = rng.NormFloat64(), math.Copysign(0, -1)
			return f, a
		},
		"off the simplex": func() (f, a []float64) {
			f, a = make([]float64, 12), make([]float64, 5)
			for i := range f {
				f[i] = rng.NormFloat64()
			}
			a[0] = math.Inf(1)
			return f, a
		},
	}
	for _, loss := range []nn.LossKind{nn.LossJS, nn.LossKL, nn.LossL2} {
		for _, omega := range []float64{0, 0.3, 1} {
			for kind, target := range targets {
				name := fmt.Sprintf("%s/omega=%v/%s", loss, omega, kind)
				cfg := DefaultConfig(12, 5)
				cfg.HiddenI, cfg.HiddenA, cfg.SeqLen = 10, 6, 5
				cfg.Loss, cfg.Omega = loss, omega
				m, err := NewModel(cfg)
				if err != nil {
					t.Fatal(err)
				}
				samples, err := BuildSamples(actions, audience, cfg.SeqLen)
				if err != nil {
					t.Fatal(err)
				}
				// A few real steps first, so the decoders are not at their
				// initialisation (zero biases).
				for i := 0; i < 3; i++ {
					if _, err := m.TrainStep(&samples[i]); err != nil {
						t.Fatal(err)
					}
				}
				for trial := 0; trial < 4; trial++ {
					s := samples[3+trial]
					s.ActionTarget, s.AudienceTarget = target()

					p := m.trainPlan()
					p.forward(m.window(&s))
					gotLoss := m.jointLoss(p, &s)
					grads := make([]*mat.Matrix, len(m.ps.Names()))
					var gotDH [2][]float64
					for i, g := range []float64{cfg.Omega, 1 - cfg.Omega} {
						gotDH[i] = p.streams[i].head.Backward(g)
						p.streams[i].head.GradsFlatInto(grads)
					}

					tp := ad.NewTape()
					bind := m.ps.Bind(tp)
					hI := tp.Var(mat.VectorOf(append([]float64(nil), p.streams[0].hT...)))
					hA := tp.Var(mat.VectorOf(append([]float64(nil), p.streams[1].hT...)))
					l := m.loss(tp, m.decI.Apply(bind, hI), m.decA.Apply(bind, hA), &s)
					tp.Backward(l)

					if want := ad.Scalar(l); !sameFloat(gotLoss, want) {
						t.Fatalf("%s: loss %v (%016X), tape %v (%016X)", name, gotLoss, math.Float64bits(gotLoss), want, math.Float64bits(want))
					}
					sameFloats(t, name+" dL/dh_T(I)", gotDH[0], hI.Grad.Data)
					sameFloats(t, name+" dL/dh_T(A)", gotDH[1], hA.Grad.Data)
					want := make([]*mat.Matrix, len(grads))
					bind.GradsFlatInto(want)
					compared := 0
					for i, pn := range m.ps.Names() {
						if grads[i] != nil { // the heads' four; the cells' never reached this tape
							sameFloats(t, name+" gradient of "+pn, grads[i].Data, want[i].Data)
							compared++
						}
					}
					if compared != 4 {
						t.Fatalf("%s: compared %d decoder gradients, want 4", name, compared)
					}
				}
			}
		}
	}
}
