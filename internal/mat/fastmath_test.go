package mat

// Property tests pinning the fast-math kernels (ISSUE 6 satellite):
//
//  1. the Go-side constants and the asm RODATA carry the same bit
//     patterns (TestFastMathConstants — the asm table is transcribed from
//     the same generator);
//  2. FastExp/FastTanh stay inside a checked-in max-ULP envelope of
//     math.Exp/math.Tanh over the LSTM-relevant range, including ±0,
//     denormals and the saturation tails;
//  3. the portable scalar forms and every active SIMD kernel (AVX2 and
//     AVX-512 are both exercised directly when the CPU has them) are
//     bit-identical on every input, including specials;
//  4. the fused fast gate kernel is exactly the composition of the
//     published scalar primitives.

import (
	"math"
	"math/rand"
	"testing"
)

// fastExpULPBudget / fastTanhULPBudget are the checked-in accuracy
// envelopes: measured max ULP error is ~2 for exp and ~4 for tanh (the
// division and the expm1 reconstruction each add a rounding); the budget
// leaves headroom of ~2× so the test fails on algorithmic regressions,
// not on a new worst-case input found by the random sweep.
const (
	fastExpULPBudget  = 4
	fastTanhULPBudget = 8
)

func TestFastMathConstants(t *testing.T) {
	// Bit patterns shared with the RODATA table in fastmath_amd64.s; both
	// sides come from the same generator. A mismatch here means the Go
	// constants were edited without the asm (or vice versa).
	want := map[string]struct {
		got  float64
		bits uint64
	}{
		"fmLog2E": {fmLog2E, 0x3FF71547652B82FE},
		"fmMagic": {fmMagic, 0x4338000000000000},
		"fmLn2Hi": {fmLn2Hi, 0x3FE62E42FEE00000},
		"fmLn2Lo": {fmLn2Lo, 0x3DEA39EF35793C76},
		"fmExpHi": {fmExpHi, 0x40862E42FEFA39EF},
		"fmExpLo": {fmExpLo, 0xC086232BDD7ABCD2},
		"1/6!":    {1.0 / 720, 0x3F56C16C16C16C17},
		"1/13!":   {1.0 / 6227020800, 0x3DE6124613A86D09},
	}
	for name, c := range want {
		if got := math.Float64bits(c.got); got != c.bits {
			t.Errorf("%s: bits %016X, want %016X", name, got, c.bits)
		}
	}
	// k·fmLn2Hi must be exact for every k the finite-exp range produces
	// (|k| ≤ 1075 < 2^11): the hi part carries ≥ 21 trailing zero
	// mantissa bits.
	mant := math.Float64bits(fmLn2Hi) & (1<<52 - 1)
	if tz := trailingZeros(mant); tz < 11 {
		t.Errorf("fmLn2Hi mantissa has %d trailing zero bits, need ≥ 11 for exact k·ln2hi", tz)
	}
}

func trailingZeros(m uint64) int {
	tz := 0
	for ; m != 0 && m&1 == 0; m >>= 1 {
		tz++
	}
	return tz
}

// orderedBits maps a float64 to a monotone int64 so ULP distance is plain
// integer subtraction; ±0 map to the same point.
func orderedBits(f float64) int64 {
	i := int64(math.Float64bits(f))
	if i < 0 {
		i = int64(-1<<63) - i
	}
	return i
}

func ulpDiff(a, b float64) uint64 {
	d := orderedBits(a) - orderedBits(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// expSweep yields the LSTM-relevant exp inputs: a dense grid plus random
// fill over the finite range, the saturation boundaries, ±0 and denormals.
func expSweep() []float64 {
	rng := rand.New(rand.NewSource(20260808))
	xs := []float64{
		0, math.Copysign(0, -1),
		5e-324, -5e-324, 1e-310, -1e-310, // denormals
		fmExpHi, math.Nextafter(fmExpHi, 0), math.Nextafter(fmExpHi, 1000),
		fmExpLo, math.Nextafter(fmExpLo, 0), math.Nextafter(fmExpLo, -1000),
		math.Ln2 / 2, -math.Ln2 / 2, // reduction boundary
	}
	for x := -709.0; x <= 709.0; x += 0.25 {
		xs = append(xs, x)
	}
	for i := 0; i < 200000; i++ {
		xs = append(xs, (rng.Float64()*2-1)*40) // LSTM preactivation range
	}
	for i := 0; i < 50000; i++ {
		xs = append(xs, (rng.Float64()*2-1)*709)
	}
	return xs
}

func TestFastExpULP(t *testing.T) {
	var maxULP uint64
	var worst float64
	for _, x := range expSweep() {
		got, want := FastExp(x), math.Exp(x)
		switch {
		case x > fmExpHi:
			if !math.IsInf(got, 1) {
				t.Fatalf("FastExp(%v) = %v, want +Inf", x, got)
			}
		case x < fmExpLo:
			// Below the smallest-normal threshold FastExp flushes to
			// zero where math.Exp still returns subnormals — the one
			// documented semantic difference.
			if got != 0 {
				t.Fatalf("FastExp(%v) = %v, want 0 (flush-to-zero tail)", x, got)
			}
		case math.IsInf(want, 1):
			// Go's amd64 math.Exp assembly saturates to +Inf from
			// k = round(x/ln2) ≥ 1024 (x ≳ 709.44) although true exp is
			// finite up to fmExpHi; FastExp's two-half rescale stays
			// finite through the whole sliver. Cross-check against a
			// manually rescaled reference at loose tolerance.
			if got < 1.2e308 {
				t.Fatalf("FastExp(%v) = %v, want ≥ 1.2e308 in the near-overflow sliver", x, got)
			}
			ref := math.Exp(float64(x-512*fmLn2Hi)-512*fmLn2Lo) * math.Ldexp(1, 512)
			if !math.IsInf(got, 1) && math.Abs(got-ref)/ref > 1e-12 {
				t.Fatalf("FastExp(%v) = %v, rescaled reference %v", x, got, ref)
			}
		default:
			if d := ulpDiff(got, want); d > maxULP {
				maxULP, worst = d, x
			}
		}
	}
	t.Logf("FastExp max ULP error %d (at x=%v) over sweep", maxULP, worst)
	if maxULP > fastExpULPBudget {
		t.Fatalf("FastExp max ULP error %d (at x=%v) exceeds budget %d", maxULP, worst, fastExpULPBudget)
	}
	// Specials.
	if got := FastExp(math.Inf(1)); !math.IsInf(got, 1) {
		t.Errorf("FastExp(+Inf) = %v, want +Inf", got)
	}
	if got := FastExp(math.Inf(-1)); got != 0 {
		t.Errorf("FastExp(-Inf) = %v, want 0", got)
	}
	if got := FastExp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("FastExp(NaN) = %v, want NaN", got)
	}
	if got := FastExp(0); got != 1 {
		t.Errorf("FastExp(0) = %v, want 1", got)
	}
}

func tanhSweep() []float64 {
	rng := rand.New(rand.NewSource(20260809))
	xs := []float64{
		0, math.Copysign(0, -1),
		5e-324, -5e-324, 1e-310, -1e-310,
		19, -19, 19.0625, 20, -20, math.Nextafter(20, 0), math.Nextafter(20, 30), 25, -25,
		math.Inf(1), math.Inf(-1),
	}
	for x := -22.0; x <= 22.0; x += 0.01 {
		xs = append(xs, x)
	}
	for i := 0; i < 200000; i++ {
		xs = append(xs, (rng.Float64()*2-1)*8) // cell-state range
	}
	return xs
}

func TestFastTanhULP(t *testing.T) {
	var maxULP uint64
	var worst float64
	for _, x := range tanhSweep() {
		got, want := FastTanh(x), math.Tanh(x)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("FastTanh(%v) = %v, want NaN", x, got)
			}
			continue
		}
		if d := ulpDiff(got, want); d > maxULP {
			maxULP, worst = d, x
		}
	}
	t.Logf("FastTanh max ULP error %d (at x=%v) over sweep", maxULP, worst)
	if maxULP > fastTanhULPBudget {
		t.Fatalf("FastTanh max ULP error %d (at x=%v) exceeds budget %d", maxULP, worst, fastTanhULPBudget)
	}
	// Sign and saturation exactness.
	if got := FastTanh(0); math.Float64bits(got) != 0 {
		t.Errorf("FastTanh(+0) = %v (bits %016X), want +0", got, math.Float64bits(got))
	}
	if got := FastTanh(math.Copysign(0, -1)); math.Float64bits(got) != 1<<63 {
		t.Errorf("FastTanh(-0) = %v (bits %016X), want -0", got, math.Float64bits(got))
	}
	if got := FastTanh(math.Inf(1)); got != 1 {
		t.Errorf("FastTanh(+Inf) = %v, want 1", got)
	}
	if got := FastTanh(math.Inf(-1)); got != -1 {
		t.Errorf("FastTanh(-Inf) = %v, want -1", got)
	}
	if got := FastTanh(math.NaN()); !math.IsNaN(got) {
		t.Errorf("FastTanh(NaN) = %v, want NaN", got)
	}
}

// specialsVector builds an input vector that hits every interesting code
// path in one SIMD pass: specials up front, then pseudo-random fill.
func specialsVector(n int, scale float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	specials := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310,
		math.Inf(1), math.Inf(-1), math.NaN(),
		709.9, -709.9, 708.0, -708.0, 20, -20, 0.25, -0.25,
	}
	for i := range v {
		if i < len(specials) {
			v[i] = specials[i]
		} else {
			v[i] = (rng.Float64()*2 - 1) * scale
		}
	}
	return v
}

// TestFastMathPortableSIMDBitIdentical drives the portable scalar forms and
// the active dispatch level over special-laden vectors and requires
// bit-identical outputs, tails included. (TestFastMathDirectKernels, amd64
// only, calls the AVX2 and AVX-512 kernels directly.)
func TestFastMathPortableSIMDBitIdentical(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 67} {
		src := specialsVector(n, 40, int64(n)*7919)

		wantExp := make([]float64, n)
		for i, x := range src {
			wantExp[i] = FastExp(-x)
		}
		wantTanh := make([]float64, n)
		for i, x := range src {
			wantTanh[i] = FastTanh(x)
		}

		// Dispatch path (whatever level is active, plus scalar tail).
		gotExp := append([]float64(nil), src...)
		VecFastExpNegInto(gotExp)
		compareBits(t, "VecFastExpNegInto", n, gotExp, wantExp)
		gotTanh := make([]float64, n)
		VecFastTanhInto(gotTanh, src)
		compareBits(t, "VecFastTanhInto", n, gotTanh, wantTanh)

		// Aliased tanh (dst == src), the form the gate kernel uses.
		alias := append([]float64(nil), src...)
		VecFastTanhInto(alias, alias)
		compareBits(t, "VecFastTanhInto(aliased)", n, alias, wantTanh)
	}
	t.Logf("active fast-math kernel: %s", SIMDGEMM())
}

func compareBits(t *testing.T, kernel string, n int, got, want []float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		gb, wb := math.Float64bits(got[i]), math.Float64bits(want[i])
		if gb != wb {
			t.Fatalf("%s n=%d lane %d: got %v (%016X), scalar %v (%016X)",
				kernel, n, i, got[i], gb, want[i], wb)
		}
	}
}

// TestLSTMGatesFastComposition pins the fused fast gate kernel to the
// composition of the published primitives, and the batch form to per-row
// single steps.
func TestLSTMGatesFastComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 5, 8, 12, 48} {
		pre := make([]float64, 4*n)
		for i := range pre {
			pre[i] = rng.NormFloat64() * 3
		}
		cPrev := make([]float64, n)
		for i := range cPrev {
			cPrev[i] = rng.NormFloat64()
		}

		// Reference: scalar composition.
		wantH, wantC := make([]float64, n), make([]float64, n)
		for j := 0; j < n; j++ {
			ig := 1 / (1 + FastExp(-pre[j]))
			fg := 1 / (1 + FastExp(-pre[n+j]))
			og := 1 / (1 + FastExp(-pre[3*n+j]))
			cd := FastTanh(pre[2*n+j])
			cn := float64(ig*cd) + float64(fg*cPrev[j])
			wantC[j] = cn
			wantH[j] = og * FastTanh(cn)
		}

		h, cNext := make([]float64, n), make([]float64, n)
		preCopy := append([]float64(nil), pre...)
		LSTMGatesFastInto(h, cNext, preCopy, cPrev)
		compareBits(t, "LSTMGatesFastInto h", n, h, wantH)
		compareBits(t, "LSTMGatesFastInto cNext", n, cNext, wantC)

		// Batch form: 3 lanes of the same step must equal 3 single steps.
		const lanes = 3
		preM, cPrevM := New(lanes, 4*n), New(lanes, n)
		hM, cNextM := New(lanes, n), New(lanes, n)
		for b := 0; b < lanes; b++ {
			copy(preM.Row(b), pre)
			copy(cPrevM.Row(b), cPrev)
		}
		LSTMGatesBatchFastInto(hM, cNextM, preM, cPrevM)
		for b := 0; b < lanes; b++ {
			compareBits(t, "LSTMGatesBatchFastInto h", n, hM.Row(b), wantH)
			compareBits(t, "LSTMGatesBatchFastInto cNext", n, cNextM.Row(b), wantC)
		}
	}
}

// BenchmarkLSTMGates compares the exact and fast gate kernels at the
// CLSTM's hot hidden size (the BENCH.md §3c transcendental ceiling).
func BenchmarkLSTMGates(b *testing.B) {
	const n = 48
	rng := rand.New(rand.NewSource(1))
	pre := make([]float64, 4*n)
	for i := range pre {
		pre[i] = rng.NormFloat64() * 2
	}
	cPrev, h, cNext := make([]float64, n), make([]float64, n), make([]float64, n)
	scratch := make([]float64, 4*n)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, pre)
			LSTMGatesInto(h, cNext, scratch, cPrev)
		}
	})
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, pre)
			LSTMGatesFastInto(h, cNext, scratch, cPrev)
		}
	})
}
