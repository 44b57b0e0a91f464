package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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
		want := Add(MatMul(x, w), bias)

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

// sumSquaresSlack is how far two sums of the same n squares, in any orders,
// may lie apart when one of them is dot: each is within γₙ·S + n·2⁻¹⁰⁷³ of
// the exact S, and S ≤ (dot + n·2⁻¹⁰⁷³)/(1 − γₙ).
func sumSquaresSlack(n int, dot float64) float64 {
	eta := float64(n) * 0x1p-1073
	g := float64(n) * 0x1p-53 / (1 - float64(n)*0x1p-53)
	return 2*g*(dot+eta)/(1-g) + 2*eta
}

// TestSumSquaresUnorderedWithinBound holds the unordered sum — every vector
// kernel and the portable loop — to its stated bound around the ascending
// sum Dot(v, v): lengths around the 4-, 8- and 32-element blocks, the served
// gradients' lengths, magnitudes that underflow, and NaN and ±Inf elements,
// which must come out NaN and +Inf as Dot's do.
func TestSumSquaresUnorderedWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	check := func(name string, v []float64) {
		t.Helper()
		want := Dot(VectorOf(v), VectorOf(v))
		got := SumSquaresUnordered(v)
		if math.IsNaN(want) || math.IsInf(want, 0) {
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s: got %v, Dot %v", name, got, want)
			}
			return
		}
		if slack := sumSquaresSlack(len(v), want); math.Abs(got-want) > slack {
			t.Fatalf("%s: got %v, Dot %v: off by %v, bound %v", name, got, want, math.Abs(got-want), slack)
		}
	}
	served := []int{3072, 32, 1072, 16, 1536, 48, 304, 19}
	for _, n := range append([]int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 200}, served...) {
		v := randMatrixFor(rng, 1, n).Data
		check(fmt.Sprintf("n=%d", n), v)
		for i := range v {
			v[i] *= 0x1p-540 // squares in the subnormal range
		}
		check(fmt.Sprintf("n=%d tiny", n), v)
		if n > 0 {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200} {
				w := randMatrixFor(rng, 1, n).Data
				w[rng.Intn(n)] = bad
				check(fmt.Sprintf("n=%d with %v", n, bad), w)
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

// BenchmarkAdamInto times one Adam update of the served model's 18 675
// parameters. Its first run fixes bc₁ = 0.5, an early step; "served" fixes
// bc₁ = 1, which 1 − 0.9ᵗ rounds to from step 356 on, so most of a
// training run's steps take that path, which skips the m̂ division.
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
	served := *c
	served.BiasCorr1 = 1
	b.Run("served", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AdamInto(p, m, v, g, &served)
		}
	})
	b.Run("portable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			adamPortable(p, m, v, g, c, 0)
		}
	})
}

// BenchmarkSumSquaresUnordered is the clip certificate of one training
// step: the served model's twenty gradients, against one Dot per gradient
// (the exact norm it spares).
func BenchmarkSumSquaresUnordered(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lens := []int{3072, 3072, 3072, 3072, 1536, 1072, 1072, 1072, 1072, 304, 48, 32, 32, 32, 32, 19, 16, 16, 16, 16}
	vecs := make([][]float64, len(lens))
	for i, n := range lens {
		vecs[i] = randMatrixFor(rng, 1, n).Data
	}
	var sink float64
	b.Run(SIMDGEMM(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range vecs {
				sink += SumSquaresUnordered(v)
			}
		}
	})
	b.Run("dot-each", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range vecs {
				sink += Dot(VectorOf(v), VectorOf(v))
			}
		}
	})
	_ = sink
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

// adamFuzzElems caps the elements one FuzzAdamInto input drives: 48 is six
// vectors, so both stages of the vector kernels' alternation see several.
const adamFuzzElems = 48

// FuzzAdamInto holds the dispatched AdamInto — the widest vector kernel
// with its guards, its reciprocal divisions and its certified square root
// — to the portable loop, bit for bit (NaN payloads aside: x86 keeps an
// operand's payload, and the two forms may order operands differently), on
// arbitrary moments, gradients and coefficients. data supplies four float64
// bit patterns per element (p, m, v, g). The seeds are the certificate's
// hard cases as v̂ (β₂ = bc₂ = 1, g = 0 makes v̂ = v), the divisions' guard
// edges, and an ordinary step.
func FuzzAdamInto(f *testing.F) {
	rng := rand.New(rand.NewSource(107))
	seed := func(p, m, v, g []float64, c AdamCoef) {
		var data []byte
		for i := range p {
			for _, x := range []float64{p[i], m[i], v[i], g[i]} {
				data = binary.LittleEndian.AppendUint64(data, math.Float64bits(x))
			}
		}
		f.Add(data, c.GradScale, c.Beta1, c.Beta2, c.BiasCorr1, c.BiasCorr2, c.LR, c.Eps)
	}
	hard := sqrtSeedOperands(rng)
	for off := 0; off+adamFuzzElems <= len(hard); off += adamFuzzElems {
		n := adamFuzzElems
		p, m, g := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range m {
			m[i] = 1
		}
		seed(p, m, hard[off:off+n], g, AdamCoef{GradScale: 1, Beta1: 1, Beta2: 1, BiasCorr1: 1, BiasCorr2: 1, LR: 1})
	}
	n := adamFuzzElems
	p, m, v, g := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range p {
		p[i], m[i], v[i], g[i] = rng.NormFloat64(), 0.1*rng.NormFloat64(), 0.01*rng.Float64(), rng.NormFloat64()
	}
	seed(p, m, v, g, AdamCoef{GradScale: 1, Beta1: 0.9, Beta2: 0.999, BiasCorr1: 0.271, BiasCorr2: 0.003, LR: 0.001, Eps: 1e-8})
	v[3], m[5], m[13], v[21] = 0x1p-901, math.Copysign(0, -1), 0x1p901, math.Inf(1)
	seed(p, m, v, g, AdamCoef{GradScale: 0.5, Beta1: 0.9, Beta2: 0.999, BiasCorr1: 0x1p-100, BiasCorr2: 0x1p100, LR: 0.001, Eps: 1e-8})

	f.Fuzz(func(t *testing.T, data []byte, scale, b1, b2, bc1, bc2, lr, eps float64) {
		n := min(len(data)/32, adamFuzzElems)
		p, m, v, g := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			w := data[32*i:]
			p[i] = math.Float64frombits(binary.LittleEndian.Uint64(w))
			m[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[8:]))
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[16:]))
			g[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[24:]))
		}
		c := &AdamCoef{GradScale: scale, Beta1: b1, OneMinusBeta1: 1 - b1, Beta2: b2, OneMinusBeta2: 1 - b2,
			BiasCorr1: bc1, BiasCorr2: bc2, LR: lr, Eps: eps}
		wp, wm, wv := append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)
		adamPortable(wp, wm, wv, g, c, 0)
		AdamInto(p, m, v, g, c)
		for _, s := range []struct {
			name      string
			got, want []float64
		}{{"p", p, wp}, {"m", m, wm}, {"v", v, wv}} {
			for i := range s.got {
				a, b := s.got[i], s.want[i]
				if math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
					t.Fatalf("%s[%d]: dispatched %v (%016X), portable %v (%016X); coefficients %+v",
						s.name, i, a, math.Float64bits(a), b, math.Float64bits(b), *c)
				}
			}
		}
	})
}

// sqrtSeedOperands is a few hundred square-root operands of the kinds the
// certificate finds hardest: near rounding midpoints, at binade edges, at
// the ends of the range, and the inputs it must refuse.
func sqrtSeedOperands(rng *rand.Rand) []float64 {
	var x []float64
	for i := 0; i < 40; i++ {
		d := math.Ldexp(1+rng.Float64(), rng.Intn(1000)-500)
		u := math.Nextafter(d, math.Inf(1)) - d
		c := math.FMA(d, d, d*u)
		x = append(x, math.Nextafter(c, 0), c, math.Nextafter(c, math.Inf(1)))
	}
	for _, k := range []int{-537, -511, -300, -1, 0, 1, 200, 511} {
		e := math.Ldexp(1, 2*k)
		x = append(x, math.Nextafter(e, 0), e, math.Nextafter(e, math.Inf(1)))
	}
	x = append(x, 0, math.Copysign(0, -1), -2, 0x1p-1074, 0x1p-1022, math.MaxFloat64, math.Inf(1), math.NaN())
	rng.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
	return x
}
