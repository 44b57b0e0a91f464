package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aovlis/internal/nn"
)

// Golden equivalence suite for the tape-free training engine: from
// identical initialisation, a model stepped through TrainPlan and one
// stepped through the whole-step autodiff tape must agree bit for bit —
// the returned loss of every step, every parameter, the optimiser's step
// count and every Adam moment (compared through the SaveRuntime bytes,
// which carry all three), and Hidden.

// sparseSeries is goldenSeries with the zeros real workloads have: exactly
// one-hot action features and audience features with exact zero entries —
// the inputs that make the weight-gradient zero-skip matter.
func sparseSeries(n, actionDim, audienceDim int, seed int64) (actions, audience [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		f := make([]float64, actionDim)
		f[(i/2)%actionDim] = 1
		a := make([]float64, audienceDim)
		for j := range a {
			if rng.Intn(3) != 0 {
				a[j] = 0.4 + 0.05*rng.NormFloat64()
			}
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}
	return actions, audience
}

func runtimeBytes(t *testing.T, save func(*bytes.Buffer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTrainPlanGoldenEquivalence(t *testing.T) {
	const steps = 60
	dense := [2][][]float64{}
	dense[0], dense[1] = goldenSeries(40, 12, 5, 41)
	sparse := [2][][]float64{}
	sparse[0], sparse[1] = sparseSeries(40, 12, 5, 43)
	for _, coupling := range []Coupling{CouplingFull, CouplingOneWay, CouplingNone} {
		for _, loss := range []nn.LossKind{nn.LossJS, nn.LossKL, nn.LossL2} {
			// 0 disables clipping, 5 is the default (fires on the first
			// steps only), 0.05 fires on every step. The tape clips by the
			// definition (trainStepTape), so 5 pins clipScale's certified
			// "no clip" as well as its exact path, and 0.05 — a global norm
			// above ClipNorm on every step — its exact fallback alone.
			finals := map[float64][]byte{}
			for _, clip := range []float64{0, 5, 0.05} {
				name := fmt.Sprintf("%s/%s/clip=%v", coupling, loss, clip)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig(12, 5)
					cfg.HiddenI, cfg.HiddenA = 10, 6
					cfg.SeqLen = 5
					cfg.Coupling, cfg.Loss = coupling, loss
					cfg.LearningRate = 0.01
					plan, err := NewModel(cfg)
					if err != nil {
						t.Fatal(err)
					}
					tape, err := NewModel(cfg)
					if err != nil {
						t.Fatal(err)
					}
					plan.opt.ClipNorm, tape.opt.ClipNorm = clip, clip
					var samples []Sample
					for _, series := range [][2][][]float64{dense, sparse} {
						ss, err := BuildSamples(series[0], series[1], cfg.SeqLen)
						if err != nil {
							t.Fatal(err)
						}
						samples = append(samples, ss...)
					}
					rng := rand.New(rand.NewSource(7))
					for i := 0; i < steps; i++ {
						s := &samples[rng.Intn(len(samples))]
						lp, err := plan.TrainStep(s)
						if err != nil {
							t.Fatal(err)
						}
						lt, err := tape.trainStepTape(s)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(lp) != math.Float64bits(lt) {
							t.Fatalf("step %d loss: plan %v (%016X), tape %v (%016X)", i, lp, math.Float64bits(lp), lt, math.Float64bits(lt))
						}
						for _, pn := range plan.ps.Names() {
							if !identicalBits(plan.ps.Get(pn).Data, tape.ps.Get(pn).Data) {
								t.Fatalf("step %d: parameter %s diverged", i, pn)
							}
						}
						hp, err := plan.Hidden(s)
						if err != nil {
							t.Fatal(err)
						}
						if !identicalBits(hp, tape.hiddenTape(s)) {
							t.Fatalf("step %d: Hidden diverged", i)
						}
					}
					got := runtimeBytes(t, func(b *bytes.Buffer) error { return plan.SaveRuntime(b) })
					want := runtimeBytes(t, func(b *bytes.Buffer) error { return tape.SaveRuntime(b) })
					if !bytes.Equal(got, want) {
						t.Fatal("runtime snapshots (parameters, Adam step count and moments) differ")
					}
					finals[clip] = got
				})
			}
			if bytes.Equal(finals[0], finals[0.05]) || bytes.Equal(finals[5], finals[0.05]) {
				t.Fatalf("%s/%s: clipping at 0.05 changed nothing; the firing path was not exercised", coupling, loss)
			}
		}
	}
}

func identicalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEvalLossMatchesTape pins the evaluation path (plan forward + head,
// no backward) to the whole-step tape forward.
func TestEvalLossMatchesTape(t *testing.T) {
	actions, audience := goldenSeries(30, 12, 5, 47)
	cfg := DefaultConfig(12, 5)
	cfg.HiddenI, cfg.HiddenA = 10, 6
	cfg.SeqLen = 5
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.EvalLoss(samples)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i := range samples {
		tp, b := m.begin()
		fhat, ahat, _, _ := m.forward(tp, b, &samples[i])
		total += m.loss(tp, fhat, ahat, &samples[i]).Value.Data[0]
	}
	if want := total / float64(len(samples)); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("EvalLoss %v, tape %v", got, want)
	}
}

// TestTrainPlanLazy pins the laziness contract: a model that only predicts
// compiles no training engine, and Hidden alone never allocates gradient
// storage.
func TestTrainPlanLazy(t *testing.T) {
	actions, audience := goldenSeries(12, 12, 5, 49)
	cfg := DefaultConfig(12, 5)
	cfg.SeqLen = 5
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Predict(&samples[0]); err != nil {
		t.Fatal(err)
	}
	if m.tplan != nil {
		t.Fatal("prediction compiled a training engine")
	}
	if _, err := m.Hidden(&samples[0]); err != nil {
		t.Fatal(err)
	}
	if m.tplan == nil {
		t.Fatal("Hidden should compile the training engine")
	}
	if _, err := m.EvalLoss(samples); err != nil {
		t.Fatal(err)
	}
	for i, g := range m.tplan.grads {
		if g != nil {
			t.Fatalf("Hidden and EvalLoss allocated gradient storage (parameter %d)", i)
		}
	}
}
