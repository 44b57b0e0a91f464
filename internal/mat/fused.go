package mat

import (
	"fmt"
	"math"
)

// Fused inference kernels for the tape-free forward path (core.InferPlan).
// Each kernel performs exactly the floating-point operations of its tape
// equivalent in the same order, so fused inference stays bit-identical to
// the autodiff forward pass (held by the golden equivalence tests in
// internal/core). Three properties carry the argument:
//
//   - FwdGEMMBiasInto (batch.go) accumulates every output column over k in
//     increasing k order — the accumulation order of MatMul for a 1×n
//     input. Neither kernel skips zero inputs: a skip would be numerically
//     inert for finite weights (a running sum that starts at +0 never
//     becomes −0, so adding ±0 terms cannot change any bit).
//   - The gate body (LSTMGatesTrainInto, which LSTMGatesInto calls) forces
//     intermediate rounding with explicit float64 conversions where the
//     tape materialises intermediates into matrices, so no FMA contraction
//     can fuse i⊙c̃ + f⊙c_{t-1} on platforms whose compiler would
//     otherwise emit it.
//   - The transcendentals are the tape's: math.Exp and math.Tanh, by call
//     or — where expNegInto/tanhInto find their vector kernels active — by
//     the same instruction sequence run several operands at a time.

// VecMatTTo computes the GEMV dst = x · wᵀ: wt is the TRANSPOSED weight
// matrix (m×n for a logical n×m weight), x has length n and dst length m.
// Each dst[j] is the dot product of x with wt's row j, accumulated over k
// in increasing order — the same per-column summation order as MatMul on
// a 1×n input — but held in a register for the whole row. It is the
// decoder head's input-gradient product dz·Wᵀ (nn.TrainHead), where the
// live row-major W already is that transposed layout. The body is
// unrolled with one accumulator per column, so the addition sequence is
// untouched; the explicit float64 conversions round every product before
// its add, forbidding FMA contraction on platforms whose compiler would
// otherwise fuse (the tape kernel rounds through memory on every term).
// The kernel is dense: no zero-input skip (see BenchmarkMatMulZeroSkip for
// why the branch is a loss on dense LSTM inputs).
func VecMatTTo(dst, x []float64, wt *Matrix) {
	if len(x) != wt.Cols || len(dst) != wt.Rows {
		panic(fmt.Sprintf("mat: VecMatTTo dims x[%d]·(%dx%d)ᵀ → dst[%d]", len(x), wt.Cols, wt.Rows, len(dst)))
	}
	n := wt.Cols
	// Four output columns per pass, two context elements per iteration:
	// the four accumulators are independent dependency chains — each still
	// sums its own column strictly in ascending k order, so bits are
	// unchanged — which keeps the FP add ports busy instead of serialising
	// on one running sum, and loads each x[k] once per four columns. The
	// row re-slices to len(x) let the compiler prove every index in the
	// unrolled body in bounds (~35% faster at the CLSTM's hot shape).
	x = x[:n]
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		r0 := wt.Data[j*n : j*n+n][:len(x)]
		r1 := wt.Data[(j+1)*n : (j+1)*n+n][:len(x)]
		r2 := wt.Data[(j+2)*n : (j+2)*n+n][:len(x)]
		r3 := wt.Data[(j+3)*n : (j+3)*n+n][:len(x)]
		var s0, s1, s2, s3 float64
		k := 0
		for ; k+2 <= len(x); k += 2 {
			xv, xw := x[k], x[k+1]
			s0 += float64(xv * r0[k])
			s0 += float64(xw * r0[k+1])
			s1 += float64(xv * r1[k])
			s1 += float64(xw * r1[k+1])
			s2 += float64(xv * r2[k])
			s2 += float64(xw * r2[k+1])
			s3 += float64(xv * r3[k])
			s3 += float64(xw * r3[k+1])
		}
		if k < len(x) {
			xv := x[k]
			s0 += float64(xv * r0[k])
			s1 += float64(xv * r1[k])
			s2 += float64(xv * r2[k])
			s3 += float64(xv * r3[k])
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < len(dst); j++ {
		row := wt.Data[j*n : j*n+n]
		var s float64
		for k, xv := range x {
			s += float64(xv * row[k])
		}
		dst[j] = s
	}
}

// expNegInto computes v[i] = math.Exp(−v[i]) in place and tanhInto
// dst[i] = math.Tanh(src[i]) (dst may be src): the two transcendentals of
// exact mode, whose bits are by definition those of the toolchain's math
// package. Where the vector kernels of exact_amd64.s are active they
// execute the math routines' own operation sequence eight (or four) lanes
// at a time and are bit-identical to the calls below on every operand
// (TestExactTranscendentalsMatchMath is the tripwire on a Go upgrade); the
// tail, and every element elsewhere, is the call itself.
func expNegInto(v []float64) {
	for i := simdExpNegInto(v); i < len(v); i++ {
		v[i] = math.Exp(-v[i])
	}
}

func tanhInto(dst, src []float64) {
	for i := simdTanhInto(dst, src); i < len(src); i++ {
		dst[i] = math.Tanh(src[i])
	}
}

// VecRecip1pInto computes v[i] = 1/(1+v[i]) in place — the closing half of
// a sigmoid whose exponentials are already in v. Addition and IEEE
// division are correctly rounded elementwise, so the vectorised form (see
// gemm_amd64.s) is bit-identical to the scalar loop.
func VecRecip1pInto(v []float64) {
	if simdRecip1pInto(v) {
		return
	}
	for i, e := range v {
		v[i] = 1 / (1 + e)
	}
}

// LSTMGatesInto applies the fused LSTM gate nonlinearities to one step's
// packed preactivations. pre has length 4H in gate order i, f, c, o
// (pre_g = ctx·W_g + b_g) and is CONSUMED as scratch; cPrev is the
// previous cell state. It writes the new cell state into cNext and the
// hidden state into h:
//
//	i = σ(pre_i)  f = σ(pre_f)  c̃ = tanh(pre_c)  o = σ(pre_o)
//	cNext = i⊙c̃ + f⊙cPrev      h = o⊙tanh(cNext)
//
// It is LSTMGatesTrainInto — the one gate body, see there — with tanh(cNext)
// parked in h until the output gate scales it.
func LSTMGatesInto(h, cNext, pre, cPrev []float64) {
	LSTMGatesTrainInto(h, cNext, h, pre, cPrev)
}

// LSTMGatesFastInto is LSTMGatesInto. The polynomial fast-math kernel it
// once named is retired; the name stays for callers that still use it.
func LSTMGatesFastInto(h, cNext, pre, cPrev []float64) { LSTMGatesInto(h, cNext, pre, cPrev) }

// VecSigmoidInto computes dst = σ(a) = 1/(1+exp(−a)) elementwise — the
// tape's sigmoid, in the gate kernel's two phases.
func VecSigmoidInto(dst, a []float64) {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("mat: VecSigmoidInto length mismatch %d vs %d", len(dst), len(a)))
	}
	copy(dst, a)
	expNegInto(dst)
	VecRecip1pInto(dst)
}

// VecTanhInto computes dst = tanh(a) elementwise.
func VecTanhInto(dst, a []float64) {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("mat: VecTanhInto length mismatch %d vs %d", len(dst), len(a)))
	}
	tanhInto(dst, a)
}

// VecReLUInto computes dst = max(0, a) elementwise.
func VecReLUInto(dst, a []float64) {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("mat: VecReLUInto length mismatch %d vs %d", len(dst), len(a)))
	}
	for i, v := range a {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}
