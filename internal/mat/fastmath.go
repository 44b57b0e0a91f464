package mat

import (
	"fmt"
	"math"
)

// Fast-math transcendental kernels (ISSUE 6): FastExp/FastTanh trade the
// last few ULP of math.Exp/math.Tanh for a polynomial of their own — a
// 13-term Taylor expansion of e^r on the reduced interval |r| ≤ ln2/2
// after Cody–Waite argument reduction x = k·ln2 + r, with the 2^k rescale
// done in integer exponent arithmetic — that is portable: the scalar form
// below and the vector kernels agree bit for bit on every platform.
//
// Speed is not what they buy on amd64: the exact kernels of exact_amd64.s
// run the math package's own sequences in vector lanes, and the exact gate
// kernel is the faster of the two there (BENCH.md "The exact gate kernel").
// What fast-math has that exact mode has not is bits that do not depend on
// the toolchain's math package; whether that keeps the mode is BENCH.md
// §14's open trial.
//
// Accuracy is not assumed: fastmath_test.go measures the max-ULP envelope
// against math.Exp/math.Tanh over the LSTM-relevant range (and the verdict
// flip-rate harness at the repo root grades the end-to-end effect). The
// envelope is a few ULP; the exact kernels remain the default and the
// reference.
//
// Bit-identical portable/SIMD by construction: the scalar forms below mimic
// the vector kernels' operation sequence exactly — same reduction, same
// Horner order, one rounding per multiply/add (the explicit float64
// conversions forbid FMA contraction), integer exponent assembly with the
// same wrap/shift semantics as the VPADDQ/VPSRLQ/VPSLLQ instructions — so
// the AVX2/AVX-512 kernels in fastmath_amd64.s and these loops agree on
// every input bit for bit (pinned by TestFastMathPortableSIMDBitIdentical).

// Fast-math constants. The asm kernels carry the same values as RODATA bit
// patterns; TestFastMathConstants pins both sides to the same bits.
const (
	fmLog2E = 1.4426950408889634073599246810019 // log2(e)
	fmMagic = 6755399441055744.0                // 2^52 + 2^51: round-to-even shifter
	fmLn2Hi = 6.93147180369123816490e-01        // high 32 bits of ln2: k·fmLn2Hi is exact for |k| ≤ 2^20
	fmLn2Lo = 1.90821492927058770002e-10        // ln2 - fmLn2Hi
	fmExpHi = 709.782712893383973096            // largest x with exp(x) finite
	fmExpLo = -708.396418532264106224           // smallest x with exp(x) ≥ smallest normal
)

// fastExpCore performs the shared reduction + polynomial: it returns the
// round-to-nearest integer k of x/ln2 (as a float64 and as its int64
// value), and q ≈ e^r − 1 on the reduced argument r = x − k·ln2. Inputs
// far outside the finite-exp range produce garbage k/q; callers mask.
func fastExpCore(x float64) (kd float64, ki int64, q float64) {
	t := float64(x * fmLog2E)
	// Adding the 2^52+2^51 shifter forces t to round to an integer in the
	// current (round-to-even) mode; subtracting it back yields k as a
	// float64, and the low mantissa bits of the shifted sum are k as an
	// int64 — recovered exactly by the bit subtraction, which is how the
	// vector kernels do it (VPSUBQ on the raw lanes).
	y := float64(t + fmMagic)
	kd = float64(y - fmMagic)
	ki = int64(math.Float64bits(y)) - int64(math.Float64bits(fmMagic))
	r := float64(x - float64(kd*fmLn2Hi))
	r = float64(r - float64(kd*fmLn2Lo))
	rr := float64(r * r)
	// Taylor e^r = 1 + r + r²·T(r), T = Σ_{j=2..13} r^{j-2}/j!, evaluated
	// by Horner with one rounding per step. |r| ≤ ln2/2 keeps the
	// truncation error below 10^-17 relative.
	T := 1.0 / 6227020800 // 1/13!
	T = float64(T*r) + 1.0/479001600
	T = float64(T*r) + 1.0/39916800
	T = float64(T*r) + 1.0/3628800
	T = float64(T*r) + 1.0/362880
	T = float64(T*r) + 1.0/40320
	T = float64(T*r) + 1.0/5040
	T = float64(T*r) + 1.0/720
	T = float64(T*r) + 1.0/120
	T = float64(T*r) + 1.0/24
	T = float64(T*r) + 1.0/6
	T = float64(T*r) + 1.0/2
	q = float64(r + float64(rr*T))
	return kd, ki, q
}

// FastExp computes e^x within a few ULP of math.Exp (envelope pinned by
// TestFastExpULP). Overflow saturates to +Inf, underflow flushes to 0
// (math.Exp's subnormal tail is given up), NaN propagates. The operation
// sequence mirrors the vector kernels exactly; see the package comment.
func FastExp(x float64) float64 {
	_, ki, q := fastExpCore(x)
	p := float64(1 + q)
	// 2^ki in two halves so the intermediate p·2^k1 stays finite for the
	// extreme ki the finite-exp range needs (ki up to ±1074). The +2048
	// bias keeps the lane positive so the logical shift (VPSRLQ) halves
	// it correctly; the Go form mirrors that with an unsigned shift.
	k1 := int64(uint64(ki+2048)>>1) - 1024
	k2 := ki - k1
	res := float64(p * math.Float64frombits(uint64(k1+1023)<<52))
	res = float64(res * math.Float64frombits(uint64(k2+1023)<<52))
	if x > fmExpHi {
		res = math.Inf(1)
	}
	if x < fmExpLo {
		res = 0
	}
	return res
}

// FastTanh computes tanh(x) within a few ULP of math.Tanh (envelope pinned
// by TestFastTanhULP) via tanh(x) = −em/(2+em) with em = e^(−2|x|) − 1,
// which is exact at ±0, saturates to ±1 beyond |x| = 20 and propagates
// NaN. expm1 comes from the shared reduction: for k = 0 the polynomial q
// IS e^r − 1 to full precision (no cancellation), otherwise the scale is
// large enough that (p·2^k) − 1 loses nothing that matters.
func FastTanh(x float64) float64 {
	ax := math.Float64frombits(math.Float64bits(x) &^ (1 << 63))
	// min(20, ax) with VMINPD's NaN semantics (NaN in the second source
	// passes through). Beyond 20, e^(−2ax) − 1 rounds to −1 exactly.
	if 20 < ax {
		ax = 20
	}
	s := float64(ax * -2.0)
	kd, ki, q := fastExpCore(s)
	p := float64(1 + q)
	// ki ∈ [−58, 0] here, so a single 2^ki factor cannot overflow.
	f := math.Float64frombits(uint64(ki+1023) << 52)
	em := float64(float64(p*f) - 1)
	if kd == 0 {
		em = q
	}
	num := float64(0 - em)
	den := float64(2 + em)
	w := float64(num / den)
	return math.Float64frombits(math.Float64bits(w) ^ (math.Float64bits(x) & (1 << 63)))
}

// VecFastExpNegInto computes v[i] = FastExp(−v[i]) in place — the
// exponential half of the fast sigmoid, fused with the gate kernel's
// negation. SIMD where active, scalar tail/fallback bit-identical.
func VecFastExpNegInto(v []float64) {
	for i := simdFastExpNegInto(v); i < len(v); i++ {
		v[i] = FastExp(-v[i])
	}
}

// VecFastTanhInto computes dst[i] = FastTanh(src[i]). dst and src may be
// the same slice. SIMD where active, scalar tail/fallback bit-identical.
func VecFastTanhInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mat: VecFastTanhInto length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := simdFastTanhInto(dst, src); i < len(dst); i++ {
		dst[i] = FastTanh(src[i])
	}
}

// LSTMGatesFastInto is the fast-math twin of LSTMGatesInto: same gate
// layout, same phasing, same single-rounding cell update, with FastExp and
// FastTanh in place of the exact transcendentals. Scores produced through
// it differ from the exact kernel by the kernels' ULP envelope; the
// verdict-flip harness grades the end-to-end effect.
func LSTMGatesFastInto(h, cNext, pre, cPrev []float64) {
	n := len(h)
	if len(cNext) != n || len(cPrev) != n || len(pre) != 4*n {
		panic(fmt.Sprintf("mat: LSTMGatesFastInto lengths h=%d cNext=%d cPrev=%d pre=%d", n, len(cNext), len(cPrev), len(pre)))
	}
	ig, fg, cd, og := pre[0:n], pre[n:2*n], pre[2*n:3*n], pre[3*n:4*n]
	VecFastExpNegInto(pre[0 : 2*n]) // i and f gates are adjacent
	VecFastExpNegInto(og)
	VecRecip1pInto(pre[0 : 2*n])
	VecRecip1pInto(og)
	VecFastTanhInto(cd, cd)
	for j := 0; j < n; j++ {
		cNext[j] = float64(ig[j]*cd[j]) + float64(fg[j]*cPrev[j])
	}
	VecFastTanhInto(h, cNext)
	for j := 0; j < n; j++ {
		h[j] = og[j] * h[j]
	}
}

// LSTMGatesBatchFastInto applies LSTMGatesFastInto to each stacked lane —
// the fast-math twin of LSTMGatesBatchInto, bit-identical to B single
// fast steps.
func LSTMGatesBatchFastInto(h, cNext, pre, cPrev *Matrix) {
	lanes := h.Rows
	if cNext.Rows != lanes || cPrev.Rows != lanes || pre.Rows != lanes {
		panic(fmt.Sprintf("mat: LSTMGatesBatchFastInto lanes h=%d cNext=%d cPrev=%d pre=%d",
			h.Rows, cNext.Rows, cPrev.Rows, pre.Rows))
	}
	for b := 0; b < lanes; b++ {
		LSTMGatesFastInto(h.Row(b), cNext.Row(b), pre.Row(b), cPrev.Row(b))
	}
}
