package mat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Property tests pinning the training kernels (train.go) to the scalar
// tape operations they replace, bit for bit, on the shapes the CLSTM
// trains at — context 80 → hidden 32, context 67 → hidden 16, decoder
// 16 → 19 — and on shapes around every vector block boundary; on one-hot
// and sparse contexts; on −0 destinations; and dispatch ≡ portable.

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s elem %d: got %v (%016X), want %v (%016X)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// trainShapes are (n, m) pairs: the served cells, the ragged decoder, and
// widths straddling the 32/16/8/4 column blocks.
var trainShapes = [][2]int{{80, 32}, {67, 16}, {16, 19}, {5, 1}, {9, 3}, {7, 4}, {3, 7}, {12, 8}, {6, 13}, {4, 33}, {3, 48}, {2, 61}}

func TestGEMVBiasIntoMatchesMatMulTo(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range trainShapes {
		n, m := sh[0], sh[1]
		w := randMatrixFor(rng, n, m)
		x := randMatrixFor(rng, 1, n)
		bias := randMatrixFor(rng, 1, m)
		mm := New(1, m)
		MatMulTo(mm, x, w)
		want := New(1, m)
		AddTo(want, mm, bias)

		got := make([]float64, m)
		GEMVBiasInto(got, x.Data, w, bias.Data)
		sameBits(t, fmt.Sprintf("GEMVBiasInto %dx%d", n, m), got, want.Data)

		portable := make([]float64, m)
		gemmRowMajorPortable(portable, m, x.Data, 1, w, 0)
		addBiasRows(portable, m, 1, bias.Data)
		sameBits(t, fmt.Sprintf("gemmRowMajorPortable %dx%d", n, m), portable, want.Data)
	}
}

func TestLSTMGatesTrainIntoMatchesInference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 3, 8, 16, 19, 32} {
		pre := randMatrixFor(rng, 1, 4*n).Data
		cPrev := randMatrixFor(rng, 1, n).Data
		wantH, wantC := make([]float64, n), make([]float64, n)
		LSTMGatesInto(wantH, wantC, append([]float64(nil), pre...), cPrev)

		act := append([]float64(nil), pre...)
		h, c, tc := make([]float64, n), make([]float64, n), make([]float64, n)
		LSTMGatesTrainInto(h, c, tc, act, cPrev)
		sameBits(t, "h", h, wantH)
		sameBits(t, "cNext", c, wantC)
		sig := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
		for j := 0; j < n; j++ {
			want := []float64{sig(pre[j]), sig(pre[n+j]), math.Tanh(pre[2*n+j]), sig(pre[3*n+j]), math.Tanh(wantC[j])}
			got := []float64{act[j], act[n+j], act[2*n+j], act[3*n+j], tc[j]}
			sameBits(t, fmt.Sprintf("activations n=%d j=%d", n, j), got, want)
		}
	}
}

// gatesBackOperands draws one step's backward inputs: activations in their
// ranges, signed zeros mixed into the gradients and the carry.
func gatesBackOperands(rng *rand.Rand, h int) (dh, carry, act, tanhC, cPrev []float64) {
	dh, carry = randMatrixFor(rng, 1, h).Data, randMatrixFor(rng, 1, h).Data
	cPrev = randMatrixFor(rng, 1, h).Data
	act, tanhC = make([]float64, 4*h), make([]float64, h)
	for j := range act {
		act[j] = rng.Float64() // σ gates; the candidate row is made signed below
	}
	for j := 0; j < h; j++ {
		act[2*h+j] = math.Tanh(rng.NormFloat64())
		tanhC[j] = math.Tanh(rng.NormFloat64())
	}
	return dh, carry, act, tanhC, cPrev
}

func TestLSTMGatesBackIntoMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, h := range []int{1, 3, 4, 8, 16, 19, 32, 37} {
		dh, carry, act, tanhC, cPrev := gatesBackOperands(rng, h)
		wantCarry, wantDpre := append([]float64(nil), carry...), make([]float64, 4*h)
		gatesBackPortable(wantDpre, wantCarry, dh, act, tanhC, cPrev, 0)
		dpre := make([]float64, 4*h)
		LSTMGatesBackInto(dpre, carry, dh, act, tanhC, cPrev)
		sameBits(t, fmt.Sprintf("h=%d dpre", h), dpre, wantDpre)
		sameBits(t, fmt.Sprintf("h=%d carry", h), carry, wantCarry)
	}
}

// stepsContext builds `steps` context rows of the given kind.
func stepsContext(rng *rand.Rand, kind string, steps, n int) []float64 {
	a := make([]float64, steps*n)
	for t := 0; t < steps; t++ {
		row := a[t*n : (t+1)*n]
		switch kind {
		case "dense":
			for k := range row {
				row[k] = rng.NormFloat64()
			}
		case "onehot":
			row[rng.Intn(n)] = 1
		case "zero": // every a == +0: the whole gradient is skipped
		case "sparse": // exact and negative zeros mixed in
			copy(row, randMatrixFor(rng, 1, n).Data)
			for k := range row {
				if rng.Intn(2) == 0 {
					row[k] = 0
				}
			}
		}
	}
	return a
}

// TestMatMulATStepsIntoMatchesPerStep holds the overwrite form to what it
// replaced — a cleared matrix and one MatMulATInto per step, descending —
// whatever the destination held before: ragged shapes, one step and nine,
// one-hot and sparse contexts (a == ±0 rows are skipped, so their elements
// read +0), and gradients with both zeros in them (a −0 product lands on
// +0).
func TestMatMulATStepsIntoMatchesPerStep(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	negZero := math.Copysign(0, -1)
	for _, sh := range trainShapes {
		n, m := sh[0], sh[1]
		for _, steps := range []int{1, 9} {
			for _, kind := range []string{"dense", "onehot", "sparse", "zero"} {
				for _, seedDst := range []string{"zero", "negzero", "random", "nan"} {
					name := fmt.Sprintf("%dx%d T=%d %s dst=%s", n, m, steps, kind, seedDst)
					// b is a gate block inside a wider packed row, like the
					// plan's 4H preactivation gradients.
					ldb, off := 4*m, 2*m
					a := stepsContext(rng, kind, steps, n)
					b := randMatrixFor(rng, steps, ldb).Data
					if kind == "sparse" {
						// 0·Inf is NaN: the skip must keep it out, as the tape's does.
						b[off] = math.Inf(1)
					}
					dst0 := New(n, m)
					switch seedDst {
					case "negzero":
						dst0.Fill(negZero)
					case "random":
						dst0 = randMatrixFor(rng, n, m)
					case "nan":
						dst0.Fill(math.NaN())
					}

					want := New(n, m)
					for s := steps - 1; s >= 0; s-- {
						MatMulATInto(want, FromSlice(1, n, a[s*n:(s+1)*n]), FromSlice(1, m, b[s*ldb+off:s*ldb+off+m]))
					}
					got := dst0.Clone()
					MatMulATStepsInto(got, a, b[off:], ldb, steps)
					sameBits(t, name, got.Data, want.Data)

					portable := dst0.Clone()
					matMulATStepsPortable(portable.Data, a, b[off:], n, m, ldb, steps, 0)
					sameBits(t, name+" portable", portable.Data, want.Data)
				}
			}
		}
	}
	got := randMatrixFor(rng, 3, 5)
	MatMulATStepsInto(got, nil, nil, 5, 0)
	sameBits(t, "no steps", got.Data, make([]float64, 15))
}

// TestSumSquaresEachMatchesDot holds every sum to Dot(v, v), bit for bit:
// lengths around the 4- and 8-element blocks, more vectors than lanes in
// unequal mixes, in any taking order, with −0, Inf and NaN among the
// elements.
func TestSumSquaresEachMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	check := func(name string, vecs [][]float64, order []int) {
		t.Helper()
		want := make([]float64, len(vecs))
		for i, v := range vecs {
			want[i] = Dot(VectorOf(v), VectorOf(v))
		}
		got := make([]float64, len(vecs))
		for i := range got {
			got[i] = math.NaN() // every entry must be written
		}
		SumSquaresEach(got, vecs, order)
		sameBits(t, name, got, want)
	}
	identity := func(n int) []int {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order
	}
	check("none", nil, nil)
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33} {
		check(fmt.Sprintf("one vector of %d", n), [][]float64{randMatrixFor(rng, 1, n).Data}, []int{0})
	}
	// The served model's twenty parameters, then random mixes.
	served := []int{3072, 32, 3072, 32, 3072, 32, 3072, 32, 1072, 16, 1072, 16, 1072, 16, 1072, 16, 1536, 48, 304, 19}
	mixes := [][]int{served, {0, 0, 0}, {7, 8, 9, 0, 1, 9, 8, 7, 1, 0, 33}}
	for trial := 0; trial < 30; trial++ {
		lens := make([]int, 1+rng.Intn(24))
		for i := range lens {
			lens[i] = rng.Intn(40)
		}
		mixes = append(mixes, lens)
	}
	for mi, lens := range mixes {
		vecs := make([][]float64, len(lens))
		for i, n := range lens {
			vecs[i] = randMatrixFor(rng, 1, n).Data
			if n > 2 && rng.Intn(4) == 0 {
				vecs[i][rng.Intn(n)] = []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e200, 1e-200}[rng.Intn(5)]
			}
		}
		check(fmt.Sprintf("mix %d in order", mi), vecs, identity(len(vecs)))
		longest := identity(len(vecs))
		sort.SliceStable(longest, func(x, y int) bool { return len(vecs[longest[x]]) > len(vecs[longest[y]]) })
		check(fmt.Sprintf("mix %d longest first", mi), vecs, longest)
		shuffled := identity(len(vecs))
		rng.Shuffle(len(shuffled), func(x, y int) { shuffled[x], shuffled[y] = shuffled[y], shuffled[x] })
		check(fmt.Sprintf("mix %d shuffled", mi), vecs, shuffled)

		// The portable rounds alone must agree too.
		var acc [sumSquaresLanes]float64
		var run [sumSquaresLanes][]float64
		n := 1 << 30
		for l := range run {
			run[l] = vecs[l%len(vecs)]
			n = min(n, len(run[l]))
		}
		sumSquaresLanesPortable(&acc, &run, 0, n, true)
		for l := range run {
			if want := Dot(VectorOf(run[l][:n]), VectorOf(run[l][:n])); math.Float64bits(acc[l]) != math.Float64bits(want) {
				t.Fatalf("mix %d portable lane %d: got %v, want %v", mi, l, acc[l], want)
			}
		}
	}
}

func TestVecAddIntoMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{0, 1, 3, 4, 7, 8, 9, 16, 19, 32, 48, 128, 131} {
		dst, src := randMatrixFor(rng, 1, n).Data, randMatrixFor(rng, 1, n).Data
		want := append([]float64(nil), dst...)
		for i := range want {
			want[i] += src[i]
		}
		VecAddInto(dst, src)
		sameBits(t, fmt.Sprintf("VecAddInto n=%d", n), dst, want)
	}
}

// TestTransposeToBlocks holds the block transpose — dispatch and portable
// body — to the allocating Transpose on the served blocks and on shapes
// that are not multiples of a register block in either direction.
func TestTransposeToBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, sh := range [][2]int{{48, 32}, {48, 16}, {32, 48}, {8, 8}, {4, 4}, {9, 8}, {8, 9}, {7, 9}, {13, 21}, {17, 5}, {5, 17}, {1, 40}, {40, 1}, {3, 3}, {26, 31}} {
		a := randMatrixFor(rng, sh[0], sh[1])
		want := Transpose(a)
		got := randMatrixFor(rng, sh[1], sh[0]) // dirty destination
		TransposeTo(got, a)
		sameBits(t, fmt.Sprintf("TransposeTo %dx%d", sh[0], sh[1]), got.Data, want.Data)
		portable := randMatrixFor(rng, sh[1], sh[0])
		transposePortable(portable.Data, a.Data, a.Rows, a.Cols, 0, a.Rows, 0)
		sameBits(t, fmt.Sprintf("transposePortable %dx%d", sh[0], sh[1]), portable.Data, want.Data)
	}
}

// adamReference is the scalar optimiser loop nn.Adam.Step ran before the
// kernel existed (clipping already applied to g in place).
func adamReference(p, m, v, g []float64, lr, b1, b2, eps, bc1, bc2 float64) {
	for i := range p {
		gi := g[i]
		m[i] = b1*m[i] + (1-b1)*gi
		v[i] = b2*v[i] + (1-b2)*gi*gi
		mhat := m[i] / bc1
		vhat := v[i] / bc2
		p[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}

func TestAdamIntoMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	// Variables, not constants: 1−β must round at run time as the
	// optimiser's does, not fold exactly at compile time.
	lr, b1, b2, eps := 0.001, 0.9, 0.999, 1e-8
	for _, n := range []int{1, 3, 4, 7, 8, 9, 15, 16, 19, 33, 304, 1072} {
		for _, scale := range []float64{1, 0.37} {
			p0 := randMatrixFor(rng, 1, n).Data
			g := randMatrixFor(rng, 1, n).Data
			m0, v0 := make([]float64, n), make([]float64, n)
			for i := range v0 {
				m0[i] = rng.NormFloat64() * 0.1
				v0[i] = rng.Float64() * 0.01
			}
			step := 1 + rng.Intn(50)
			if n%2 == 1 {
				step += 400 // 0.9^t < 2^-53: bc1 rounds to exactly 1, the kernels' no-divide path
			}
			bc1 := 1 - math.Pow(b1, float64(step))
			bc2 := 1 - math.Pow(b2, float64(step))

			wp, wm, wv := append([]float64(nil), p0...), append([]float64(nil), m0...), append([]float64(nil), v0...)
			scaled := append([]float64(nil), g...)
			if scale != 1 {
				for i := range scaled {
					scaled[i] *= scale
				}
			}
			adamReference(wp, wm, wv, scaled, lr, b1, b2, eps, bc1, bc2)

			c := &AdamCoef{GradScale: scale, Beta1: b1, OneMinusBeta1: 1 - b1, Beta2: b2, OneMinusBeta2: 1 - b2,
				BiasCorr1: bc1, BiasCorr2: bc2, LR: lr, Eps: eps}
			for _, path := range []string{"dispatch", "portable"} {
				gp, gm, gv := append([]float64(nil), p0...), append([]float64(nil), m0...), append([]float64(nil), v0...)
				if path == "dispatch" {
					AdamInto(gp, gm, gv, g, c)
				} else {
					adamPortable(gp, gm, gv, g, c, 0)
				}
				name := fmt.Sprintf("%s n=%d scale=%v", path, n, scale)
				sameBits(t, name+" p", gp, wp)
				sameBits(t, name+" m", gm, wm)
				sameBits(t, name+" v", gv, wv)
			}
		}
	}
}

func BenchmarkMatMulATStepsInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, m, steps = 80, 32, 9
	a := stepsContext(rng, "dense", steps, n)
	g := randMatrixFor(rng, steps, 4*m).Data
	dst := New(n, m)
	b.Run(SIMDGEMM(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulATStepsInto(dst, a, g, 4*m, steps)
		}
	})
	b.Run("per-step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := steps - 1; s >= 0; s-- {
				MatMulATInto(dst, FromSlice(1, n, a[s*n:(s+1)*n]), FromSlice(1, m, g[s*4*m:s*4*m+m]))
			}
		}
	})
}

func BenchmarkAdamInto(b *testing.B) {
	const n = 18675
	rng := rand.New(rand.NewSource(1))
	p, g := randMatrixFor(rng, 1, n).Data, randMatrixFor(rng, 1, n).Data
	m, v := make([]float64, n), make([]float64, n)
	c := &AdamCoef{GradScale: 1, Beta1: 0.9, OneMinusBeta1: 1 - 0.9, Beta2: 0.999, OneMinusBeta2: 1 - 0.999,
		BiasCorr1: 0.5, BiasCorr2: 0.05, LR: 0.001, Eps: 1e-8}
	b.Run(SIMDGEMM(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AdamInto(p, m, v, g, c)
		}
	})
	b.Run("portable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			adamPortable(p, m, v, g, c, 0)
		}
	})
}

// BenchmarkSumSquaresEach is the clip norm of one training step: the served
// model's twenty gradients, longest first, against one Dot per gradient.
func BenchmarkSumSquaresEach(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lens := []int{3072, 3072, 3072, 3072, 1536, 1072, 1072, 1072, 1072, 304, 48, 32, 32, 32, 32, 19, 16, 16, 16, 16}
	vecs, order := make([][]float64, len(lens)), make([]int, len(lens))
	for i, n := range lens {
		vecs[i], order[i] = randMatrixFor(rng, 1, n).Data, i
	}
	dst := make([]float64, len(lens))
	b.Run(SIMDGEMM(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SumSquaresEach(dst, vecs, order)
		}
	})
	b.Run("dot-each", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, v := range vecs {
				dst[j] = Dot(VectorOf(v), VectorOf(v))
			}
		}
	})
}

// BenchmarkTransposeTo is one hidden-column weight block of the served
// LSTM_I (48 context columns × 32 units), re-transposed every training step.
func BenchmarkTransposeTo(b *testing.B) {
	a := randMatrixFor(rand.New(rand.NewSource(1)), 48, 32)
	dst := New(32, 48)
	b.Run(SIMDGEMM(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TransposeTo(dst, a)
		}
	})
	b.Run("portable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			transposePortable(dst.Data, a.Data, a.Rows, a.Cols, 0, a.Rows, 0)
		}
	})
}
