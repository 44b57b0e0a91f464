package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cellShapes are (context, hidden) pairs: the served cells (96/32, 67/16),
// their backward transposes' shapes, and shapes off every column block.
var cellShapes = [][2]int{{96, 32}, {67, 16}, {32, 48}, {16, 48}, {1, 8}, {5, 1}, {9, 3}, {12, 8}, {6, 13}, {4, 33}, {3, 48}, {2, 61}, {7, 72}, {0, 16}}

// TestGatesGEMVBiasIntoMatchesPerGate holds the one-call forward to four
// GEMVBiasInto calls, bit for bit, with ±0 among the operands.
func TestGatesGEMVBiasIntoMatchesPerGate(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, sh := range cellShapes {
		n, m := sh[0], sh[1]
		var w, b [4]*Matrix
		for g := range w {
			w[g] = randMatrixFor(rng, n, m)
			b[g] = randMatrixFor(rng, 1, m)
		}
		x := randMatrixFor(rng, 1, n).Data
		want := make([]float64, 4*m)
		for g := range w {
			GEMVBiasInto(want[g*m:(g+1)*m], x, w[g], b[g].Data)
		}
		got := randMatrixFor(rng, 1, 4*m).Data // dirty destination
		GatesGEMVBiasInto(got, x, &w, &b)
		sameBits(t, fmt.Sprintf("GatesGEMVBiasInto %dx%d", n, m), got, want)
	}
}

// TestGatesGEMVTIntoMatchesPerGate holds the one-call backward product to
// the per-gate sequence it replaces: the output gate's GEMV, then each of
// c, f, i into scratch and added.
func TestGatesGEMVTIntoMatchesPerGate(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, sh := range cellShapes {
		h, c := sh[0], sh[1]
		var wt [4]*Matrix
		for g := range wt {
			wt[g] = randMatrixFor(rng, h, c)
		}
		dpre := randMatrixFor(rng, 1, 4*h).Data
		want, gemv := make([]float64, c), make([]float64, c)
		FwdGEMMBiasInto(want, dpre[3*h:], 1, wt[3], nil, nil)
		for g := 2; g >= 0; g-- {
			FwdGEMMBiasInto(gemv, dpre[g*h:(g+1)*h], 1, wt[g], nil, nil)
			VecAddInto(want, gemv)
		}
		got, scratch := randMatrixFor(rng, 1, c).Data, make([]float64, c)
		GatesGEMVTInto(got, scratch, dpre, &wt)
		sameBits(t, fmt.Sprintf("GatesGEMVTInto %dx%d", h, c), got, want)
	}
}

// TestLSTMGatesTrainIntoMatchesScalar holds the gate body — the one-call
// kernel where it runs, the phased calls elsewhere and when a
// preactivation leaves the kernels' |x| ≤ 700 guard — to
// the scalar gate-by-gate form on math.Exp and math.Tanh, bit for bit (a
// NaN matches any NaN): every state and activation, with tanhC apart from
// h and aliased to it, at widths on and off the kernel's 8-unit blocks.
// Every second case puts one value outside the guard, in a preactivation
// (the step falls back to the phased calls) or in c_{t−1}, so that only
// the new cell state leaves it (the kernel's tanh saturates it).
func TestLSTMGatesTrainIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, n := range []int{1, 7, 8, 16, 19, 32, 48} {
		for trial := 0; trial < 40; trial++ {
			pre, cPrev := randMatrixFor(rng, 1, 4*n).Data, randMatrixFor(rng, 1, n).Data
			for i := range pre {
				pre[i] *= []float64{0.3, 1, 4, 30}[rng.Intn(4)]
			}
			if trial%2 == 1 {
				bad := []float64{750, -750, math.Inf(1), math.Inf(-1), math.NaN(), 1e300}[rng.Intn(6)]
				if j := rng.Intn(n); rng.Intn(2) == 0 {
					pre[rng.Intn(4)*n+j] = bad
				} else {
					cPrev[j] = bad
				}
			}
			for _, alias := range []bool{false, true} {
				act := append([]float64(nil), pre...)
				h, c, tc := make([]float64, n), make([]float64, n), make([]float64, n)
				if alias {
					tc = h
				}
				LSTMGatesTrainInto(h, c, tc, act, cPrev)
				sig := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
				for j := 0; j < n; j++ {
					i, f, cand, o := sig(pre[j]), sig(pre[n+j]), math.Tanh(pre[2*n+j]), sig(pre[3*n+j])
					cn := float64(i*cand) + float64(f*cPrev[j])
					tcn := math.Tanh(cn)
					want := []float64{i, f, cand, o, cn, tcn, o * tcn}
					got := []float64{act[j], act[n+j], act[2*n+j], act[3*n+j], c[j], tc[j], h[j]}
					if alias {
						want, got = want[:5], got[:5]
						want, got = append(want, o*tcn), append(got, h[j])
					}
					for k := range want {
						if !same(got[k], want[k]) {
							t.Fatalf("n=%d trial %d alias=%v unit %d value %d: got %v, want %v", n, trial, alias, j, k, got[k], want[k])
						}
					}
				}
			}
		}
	}
}

// BenchmarkCellStepGEMV times one cell step's products at the served
// shapes — the action cell (96-wide context, 32 units) and the audience
// cell (67, 16), whose backward products cover their 48 hidden columns —
// as one fused call and as the per-gate calls it replaces.
func BenchmarkCellStepGEMV(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range [][2]int{{96, 32}, {67, 16}} {
		n, m := sh[0], sh[1]
		const c = 48
		var w, bias, wt [4]*Matrix
		for g := range w {
			w[g], bias[g], wt[g] = randMatrixFor(rng, n, m), randMatrixFor(rng, 1, m), randMatrixFor(rng, m, c)
		}
		x, dpre := randMatrixFor(rng, 1, n).Data, randMatrixFor(rng, 1, 4*m).Data
		pre, dctx, scratch := make([]float64, 4*m), make([]float64, c), make([]float64, c)
		b.Run(fmt.Sprintf("fwd-%dx%d/fused", n, m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GatesGEMVBiasInto(pre, x, &w, &bias)
			}
		})
		b.Run(fmt.Sprintf("fwd-%dx%d/per-gate", n, m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for g := range w {
					GEMVBiasInto(pre[g*m:(g+1)*m], x, w[g], bias[g].Data)
				}
			}
		})
		b.Run(fmt.Sprintf("back-%dx%d/fused", m, c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GatesGEMVTInto(dctx, scratch, dpre, &wt)
			}
		})
		b.Run(fmt.Sprintf("back-%dx%d/per-gate", m, c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FwdGEMMBiasInto(dctx, dpre[3*m:], 1, wt[3], nil, nil)
				for g := 2; g >= 0; g-- {
					FwdGEMMBiasInto(scratch, dpre[g*m:(g+1)*m], 1, wt[g], nil, nil)
					VecAddInto(dctx, scratch)
				}
			}
		})
	}
}

// TestGatesMatMulATStepsIntoMatchesPerGate holds the one-call weight
// gradients to four MatMulATStepsInto calls, bit for bit, on dense,
// sparse (±0 mixed in), one-hot and all-zero contexts against gradients
// with infinities among them (so a zero context word that is not skipped
// shows as NaN), over windows of 9, 1 and 0 steps, into dirty
// destinations.
func TestGatesMatMulATStepsIntoMatchesPerGate(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for _, sh := range cellShapes {
		n, m := sh[0], sh[1]
		for _, steps := range []int{9, 1, 0} {
			for _, kind := range []string{"dense", "sparse", "onehot", "zero"} {
				if n == 0 && kind == "onehot" {
					continue
				}
				a := stepsContext(rng, kind, steps, n)
				b := randMatrixFor(rng, steps, 4*m).Data
				for i := 0; i < len(b); i += 7 {
					b[i] = math.Inf(1) // 0·Inf is NaN: a term the skip must drop
				}
				var got, want [4]*Matrix
				for g := range got {
					want[g] = randMatrixFor(rng, n, m)
					if steps > 0 {
						MatMulATStepsInto(want[g], a, b[g*m:], 4*m, steps)
					} else {
						MatMulATStepsInto(want[g], a, nil, 4*m, 0)
					}
					got[g] = randMatrixFor(rng, n, m)
				}
				GatesMatMulATStepsInto(&got, a, b, steps)
				for g := range got {
					sameBits(t, fmt.Sprintf("GatesMatMulATStepsInto %dx%d %s steps=%d gate %d", n, m, kind, steps, g), got[g].Data, want[g].Data)
				}
			}
		}
	}
}

// BenchmarkCellStepWeightGrads times one window's weight gradients for both
// served cells — 9 steps; the action cell's context is 48 dense hidden
// columns and a one-hot input, the audience cell's 48 hidden and 19 input
// columns with one non-zero — as two fused calls and as the eight per-gate
// calls they replace.
func BenchmarkCellStepWeightGrads(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const steps = 9
	ctx := func(n int) []float64 {
		a := make([]float64, steps*n)
		for t := 0; t < steps; t++ {
			for k := 0; k < 48; k++ {
				a[t*n+k] = rng.NormFloat64()
			}
			a[t*n+48+rng.Intn(n-48)] = 1
		}
		return a
	}
	aA, aB := ctx(96), ctx(67)
	gA, gB := randMatrixFor(rng, steps, 128).Data, randMatrixFor(rng, steps, 64).Data
	var dA, dB [4]*Matrix
	for g := range dA {
		dA[g], dB[g] = New(96, 32), New(67, 16)
	}
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GatesMatMulATStepsInto(&dA, aA, gA, steps)
			GatesMatMulATStepsInto(&dB, aB, gB, steps)
		}
	})
	b.Run("per-gate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for g := range dA {
				MatMulATStepsInto(dA[g], aA, gA[g*32:], 128, steps)
				MatMulATStepsInto(dB[g], aB, gB[g*16:], 64, steps)
			}
		}
	})
}
