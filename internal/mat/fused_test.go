package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestVecMatTToMatchesMatMulTo pins the fused GEMV bit-identical to the
// tape kernel (MatMul on a 1×n matrix), including on inputs with exact
// zeros — the case where a zero-skip branch would take a different control
// path but must not produce different bits — and across lengths that
// exercise every unroll tail.
func TestVecMatTToMatchesMatMulTo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		m := 1 + rng.Intn(40)
		x := make([]float64, n)
		for i := range x {
			switch rng.Intn(4) {
			case 0:
				x[i] = 0 // exercise the skip-vs-dense divergence
			case 1:
				x[i] = math.Copysign(0, -1) // negative zero
			default:
				x[i] = rng.NormFloat64()
			}
		}
		w := New(n, m)
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64()
		}
		ref := MatMul(FromSlice(1, n, x), w)
		wt := Transpose(w)
		got := make([]float64, m)
		VecMatTTo(got, x, wt)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(ref.Data[j]) {
				t.Fatalf("trial %d: VecMatTTo[%d] = %x, MatMul = %x",
					trial, j, math.Float64bits(got[j]), math.Float64bits(ref.Data[j]))
			}
		}
	}
}

// TestFwdGEMMBiasMatchesMatMulAdd pins the one-lane GEMM+bias, whichever
// kernel is active, to the tape's MatMul-then-Add order.
func TestFwdGEMMBiasMatchesMatMulAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(30)
		m := 1 + rng.Intn(30)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		w := New(n, m)
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ref := Add(MatMul(FromSlice(1, n, x), w), FromSlice(1, m, b))
		got := make([]float64, m)
		FwdGEMMBiasInto(got, x, 1, w, Transpose(w), b)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(ref.Data[j]) {
				t.Fatalf("trial %d col %d: fused %v, tape order %v", trial, j, got[j], ref.Data[j])
			}
		}
	}
}

// TestLSTMGatesIntoMatchesUnfused pins the fused gate kernel against the
// exact sequence of elementwise tape ops: σ/σ/tanh/σ on the four gate
// blocks, then i⊙c̃ + f⊙cPrev (two rounded products, then an add), then
// o⊙tanh(c).
func TestLSTMGatesIntoMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sigmoid := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	for trial := 0; trial < 200; trial++ {
		h := 1 + rng.Intn(48)
		pre := make([]float64, 4*h)
		cPrev := make([]float64, h)
		for i := range pre {
			pre[i] = 3 * rng.NormFloat64()
		}
		for i := range cPrev {
			cPrev[i] = rng.NormFloat64()
		}
		gotH := make([]float64, h)
		gotC := make([]float64, h)
		// The kernel consumes pre as scratch; keep a pristine copy for the
		// reference computation.
		preRef := append([]float64(nil), pre...)
		LSTMGatesInto(gotH, gotC, pre, cPrev)
		for j := 0; j < h; j++ {
			ig := sigmoid(preRef[j])
			fg := sigmoid(preRef[h+j])
			cd := math.Tanh(preRef[2*h+j])
			og := sigmoid(preRef[3*h+j])
			t1 := ig * cd // the tape stores each product before adding
			t2 := fg * cPrev[j]
			cn := t1 + t2
			hh := og * math.Tanh(cn)
			if math.Float64bits(gotC[j]) != math.Float64bits(cn) {
				t.Fatalf("trial %d: cNext[%d] = %v, want %v", trial, j, gotC[j], cn)
			}
			if math.Float64bits(gotH[j]) != math.Float64bits(hh) {
				t.Fatalf("trial %d: h[%d] = %v, want %v", trial, j, gotH[j], hh)
			}
		}
	}
}

// TestLSTMGatesFastComposition pins LSTMGatesFastInto, the name of the
// retired polynomial kernel, to the exact gate kernel it now is: bit for
// bit what LSTMGatesInto writes, across the SIMD widths and their tails.
func TestLSTMGatesFastComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 1; n <= 48; n++ {
		pre := make([]float64, 4*n)
		cPrev := make([]float64, n)
		for i := range pre {
			pre[i] = 3 * rng.NormFloat64()
		}
		for i := range cPrev {
			cPrev[i] = rng.NormFloat64()
		}
		wantH, wantC := make([]float64, n), make([]float64, n)
		LSTMGatesInto(wantH, wantC, append([]float64(nil), pre...), cPrev)
		h, cNext := make([]float64, n), make([]float64, n)
		LSTMGatesFastInto(h, cNext, pre, cPrev)
		for j := 0; j < n; j++ {
			if math.Float64bits(h[j]) != math.Float64bits(wantH[j]) || math.Float64bits(cNext[j]) != math.Float64bits(wantC[j]) {
				t.Fatalf("n=%d lane %d: LSTMGatesFastInto %v/%v, LSTMGatesInto %v/%v", n, j, h[j], cNext[j], wantH[j], wantC[j])
			}
		}
	}
}

// BenchmarkLSTMGates times the gate kernel at the CLSTM's hot hidden size
// (the BENCH.md §3c transcendental ceiling).
func BenchmarkLSTMGates(b *testing.B) {
	const n = 48
	rng := rand.New(rand.NewSource(1))
	pre := make([]float64, 4*n)
	for i := range pre {
		pre[i] = rng.NormFloat64() * 2
	}
	cPrev, h, cNext := make([]float64, n), make([]float64, n), make([]float64, n)
	scratch := make([]float64, 4*n)
	for i := 0; i < b.N; i++ {
		copy(scratch, pre)
		LSTMGatesInto(h, cNext, scratch, cPrev)
	}
}

// TestVecActivationsMatchApply pins the slice activation kernels against
// the matrix Apply forms the tape uses.
func TestVecActivationsMatchApply(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 64
	a := make([]float64, n)
	for i := range a {
		a[i] = 4 * rng.NormFloat64()
	}
	am := FromSlice(1, n, a)
	check := func(name string, got []float64, ref *Matrix) {
		t.Helper()
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], ref.Data[i])
			}
		}
	}
	dst := make([]float64, n)
	VecSigmoidInto(dst, a)
	check("sigmoid", dst, Apply(am, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }))
	VecTanhInto(dst, a)
	check("tanh", dst, Apply(am, math.Tanh))
	VecReLUInto(dst, a)
	check("relu", dst, Apply(am, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	}))
}
