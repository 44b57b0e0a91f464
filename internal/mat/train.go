package mat

import (
	"fmt"
	"math"
)

// Kernels of the tape-free training engine (core.TrainPlan). Each one is
// bit-identical to the autodiff-tape operation it replaces, by the same
// three arguments the inference kernels rest on (fused.go), extended to
// the backward direction:
//
//   - Accumulation order. Every output element is one accumulator that
//     receives exactly the tape's terms in the tape's order: ascending k
//     for the forward GEMV (GEMVBiasInto ≡ MatMulTo), descending time step
//     for the weight gradient (MatMulATStepsInto ≡ a cleared matrix and one
//     MatMulATInto per step in Backward's reverse order). Vector lanes are
//     always distinct output elements — or, in SumSquaresEach, distinct
//     sums — so no horizontal sum ever reorders a reduction.
//   - The zero-skip survives where the tape has it. MatMulATInto skips
//     a[k] == 0 terms; MatMulATStepsInto keeps the branch, so a term the
//     tape never adds (0·Inf would be NaN) is never added here either.
//   - No FMA contraction. The assembly issues separate VMULPD/VADDPD, and
//     the portable loops round every product through an explicit float64
//     conversion before its add, so platforms whose compiler fuses
//     (arm64) produce amd64's bits.
//
// The optimiser kernel (AdamInto) is purely elementwise: IEEE add, mul,
// divide and square root are correctly rounded, so evaluating eight
// elements per instruction cannot change any of them. Its vector form
// does fuse, in one place and to the same end: the two quotients whose
// divisor is a per-step scalar are computed as a correctly rounded
// division by other means (a reciprocal and two FMAs, see train_amd64.s),
// which is the quotient `/` returns or the lane takes the divide.

// GEMVBiasInto computes dst = x·w + bias for the ROW-MAJOR n×m weight w
// (len(x) = n, len(dst) = len(bias) = m): each dst[j] is one accumulator
// over k in ascending order, then the bias is added in a separate pass —
// the tape's MatMul node followed by its Add node. It is the forward GEMV
// of the training engine, which reads the live per-gate parameter matrices
// (already row-major) and therefore needs no packed or transposed copy. It
// is the one-lane case of the inference engine's GEMM.
func GEMVBiasInto(dst, x []float64, w *Matrix, bias []float64) {
	n, m := w.Rows, w.Cols
	if len(x) != n || len(dst) != m || len(bias) != m {
		panic(fmt.Sprintf("mat: GEMVBiasInto x[%d]·(%dx%d) + bias[%d] → dst[%d]", len(x), n, m, len(bias), len(dst)))
	}
	gemmBias(dst, m, x, 1, w, bias)
}

// LSTMGatesTrainInto is the gate body of the engine, inference and
// training alike: LSTMGatesInto's arithmetic with every intermediate the
// backward pass needs kept. On return pre (length 4H, gate order
// i, f, c, o) holds the gate ACTIVATIONS σ(pre_i), σ(pre_f), tanh(pre_c),
// σ(pre_o), tanhC holds tanh(cNext), and cNext/h are the new states.
// tanhC may be h itself (inference keeps nothing).
//
// The body is phased: the sigmoid gates' exponentials (expNegInto), then
// σ = 1/(1+e) (VecRecip1pInto), the candidate's tanh, the cell update, its
// tanh, the output product. Every phase is elementwise, so phasing
// reorders only *which unit* is processed when; each operation sees the
// inputs it would see in the scalar gate-by-gate form and the result is
// bit-identical to it — and to the tape: the explicit float64 conversions
// force the two products to round before the add, exactly as the tape
// rounds them when storing the Mul nodes, so no FMA contraction can
// perturb the result.
func LSTMGatesTrainInto(h, cNext, tanhC, pre, cPrev []float64) {
	n := len(h)
	if len(cNext) != n || len(tanhC) != n || len(cPrev) != n || len(pre) != 4*n {
		panic(fmt.Sprintf("mat: LSTMGatesTrainInto lengths h=%d cNext=%d tanhC=%d cPrev=%d pre=%d",
			n, len(cNext), len(tanhC), len(cPrev), len(pre)))
	}
	ig, fg, cd, og := pre[0:n], pre[n:2*n], pre[2*n:3*n], pre[3*n:4*n]
	expNegInto(pre[0 : 2*n]) // i and f gates are adjacent
	expNegInto(og)
	VecRecip1pInto(pre[0 : 2*n])
	VecRecip1pInto(og)
	tanhInto(cd, cd)
	for j := 0; j < n; j++ {
		cNext[j] = float64(ig[j]*cd[j]) + float64(fg[j]*cPrev[j])
	}
	tanhInto(tanhC, cNext)
	for j := 0; j < n; j++ {
		h[j] = og[j] * tanhC[j]
	}
}

// LSTMGatesBackInto backpropagates one step through the gate body. act and
// tanhC are what LSTMGatesTrainInto left for that step (gate activations
// i, f, c̃, o and tanh(c)), cPrev the cell state it started from, dh the
// gradient reaching its hidden state (read-only). carry holds ∂L/∂c flowing
// in from the step after and is replaced by what flows on to the step
// before; dpre (length 4H, gate order i, f, c, o) receives the
// preactivation gradients.
//
// Every line is one tape backstep, in Backward's reverse recording order;
// the leading "0 +" reproduces the tape's first accumulation into a zeroed
// gradient matrix (it turns a −0 product into +0), and the float64
// conversions round each product before it is added, as the tape does by
// storing it. All of it is elementwise, so the vector kernels — one
// VMULPD/VADDPD/VSUBPD per operation below — are bit-identical to the loop.
func LSTMGatesBackInto(dpre, carry, dh, act, tanhC, cPrev []float64) {
	h := len(dh)
	if len(dpre) != 4*h || len(act) != 4*h || len(carry) != h || len(tanhC) != h || len(cPrev) != h {
		panic(fmt.Sprintf("mat: LSTMGatesBackInto lengths dh=%d dpre=%d act=%d carry=%d tanhC=%d cPrev=%d",
			h, len(dpre), len(act), len(carry), len(tanhC), len(cPrev)))
	}
	gatesBackPortable(dpre, carry, dh, act, tanhC, cPrev, simdGatesBackInto(dpre, carry, dh, act, tanhC, cPrev))
}

// gatesBackPortable is the scalar body of LSTMGatesBackInto over elements
// [from, len(dh)).
func gatesBackPortable(dpre, carry, dh, act, tanhC, cPrev []float64, from int) {
	h := len(dh)
	ig, fg, cd, og := act[0:h], act[h:2*h], act[2*h:3*h], act[3*h:4*h]
	for j := from; j < h; j++ {
		i, f, cand, o, tc := ig[j], fg[j], cd[j], og[j], tanhC[j]
		// h = o ⊙ tanh(c)
		do := 0 + float64(dh[j]*tc)
		dtc := 0 + float64(dh[j]*o)
		// c receives the next step's forget path first, then its own tanh.
		dc := carry[j] + float64(dtc*(1-float64(tc*tc)))
		// c = i⊙c̃ + f⊙c_{t−1}
		df := 0 + float64(dc*cPrev[j])
		carry[j] = 0 + float64(dc*f)
		di := 0 + float64(dc*cand)
		dcand := 0 + float64(dc*i)
		// gate nonlinearities
		dpre[3*h+j] = 0 + float64(float64(do*o)*(1-o))
		dpre[2*h+j] = 0 + float64(dcand*(1-float64(cand*cand)))
		dpre[h+j] = 0 + float64(float64(df*f)*(1-f))
		dpre[j] = 0 + float64(float64(di*i)*(1-i))
	}
}

// MatMulATStepsInto computes dst = Σ_t a_tᵀ·b_t over t = steps−1 … 0 —
// the weight gradient of one gate over a whole BPTT window in a single
// pass that writes dst once, instead of one rank-1 read-modify-write per
// time step over a cleared matrix. dst is n×m and is overwritten; a holds
// `steps` contiguous rows of length n (the saved gate contexts); row t of b
// starts at b[t·ldb] and its first m elements are used (the gate's block of
// the packed preactivation gradients). Element (k, j) is one accumulator
// started at +0 that receives exactly the terms MatMulATInto(dst, a_t, b_t)
// would add to a zeroed dst, for t descending — Backward's order —
// including its a_t[k] == 0 skip, so the result is bit-identical to
// zero-then-accumulate: a −0 product still lands on +0, a skipped element
// still reads +0.
func MatMulATStepsInto(dst *Matrix, a, b []float64, ldb, steps int) {
	n, m := dst.Rows, dst.Cols
	if steps < 0 || len(a) != steps*n || ldb < m || (steps > 0 && len(b) < (steps-1)*ldb+m) {
		panic(fmt.Sprintf("mat: MatMulATStepsInto dst %dx%d, a[%d], b[%d] ldb %d, %d steps", n, m, len(a), len(b), ldb, steps))
	}
	if n == 0 || m == 0 {
		return
	}
	if steps == 0 {
		dst.Zero()
		return
	}
	if done := simdATStepsInto(dst.Data, a, b, n, m, ldb, steps); done < m {
		matMulATStepsPortable(dst.Data, a, b, n, m, ldb, steps, done)
	}
}

// matMulATStepsPortable is the scalar body of MatMulATStepsInto over
// columns [from, m): row by row, so the destination row stays cache-hot
// across the time loop.
func matMulATStepsPortable(dst, a, b []float64, n, m, ldb, steps, from int) {
	for k := 0; k < n; k++ {
		drow := dst[k*m+from : (k+1)*m]
		for j := range drow {
			drow[j] = 0
		}
		for t := steps - 1; t >= 0; t-- {
			av := a[t*n+k]
			if av == 0 {
				continue
			}
			brow := b[t*ldb+from : t*ldb+m]
			for j, bv := range brow {
				drow[j] += float64(av * bv)
			}
		}
	}
}

// VecAddInto computes dst[i] += src[i]: the accumulation step of the
// backward pass's small sums (a bias gradient over time steps, a context
// gradient over gates, a hidden gradient over the contexts that read it).
// Elementwise, so the vector kernels are bit-identical to the loop.
func VecAddInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mat: VecAddInto length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := simdVecAddInto(dst, src); i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// sumSquaresLanes is how many sums SumSquaresEach keeps in flight.
const sumSquaresLanes = 8

// SumSquaresEach sets dst[i] = Σ_k vecs[i][k]² for every vector, each its
// own strictly ascending sum from zero with every square rounded before it
// is added — bit for bit Dot(v, v). Such a sum is one chain of dependent
// adds and cannot be split without reordering it; what can overlap is the
// chains of DIFFERENT vectors. Eight run at a time, one per lane, and a
// lane whose vector ends takes the next one, so vectors of unequal length
// pack: the call costs about the latency of its longest chain instead of
// the sum of all of them. order lists the indexes of vecs in the sequence
// lanes take them; longest first gives the shortest schedule, any
// permutation gives the same bits.
func SumSquaresEach(dst []float64, vecs [][]float64, order []int) {
	if len(dst) != len(vecs) || len(order) != len(vecs) {
		panic(fmt.Sprintf("mat: SumSquaresEach dst[%d], %d vectors, order[%d]", len(dst), len(vecs), len(order)))
	}
	var (
		acc  [sumSquaresLanes]float64
		rest [sumSquaresLanes][]float64 // what is left of each lane's vector
		idx  [sumSquaresLanes]int       // its index in vecs, −1 for an idle lane
		run  [sumSquaresLanes][]float64 // this round's operands
	)
	for l := range idx {
		idx[l] = -1
	}
	next := 0
	for {
		// Retire finished lanes, refill free ones, and find the round's
		// length: the shortest remainder among the busy lanes.
		busy, n := -1, 0
		for l := range rest {
			if idx[l] >= 0 && len(rest[l]) == 0 {
				dst[idx[l]], idx[l] = acc[l], -1
			}
			for idx[l] < 0 && next < len(order) {
				i := order[next]
				next++
				if len(vecs[i]) == 0 {
					dst[i] = 0
					continue
				}
				idx[l], rest[l], acc[l] = i, vecs[i], 0
			}
			if idx[l] >= 0 && (busy < 0 || len(rest[l]) < n) {
				busy, n = l, len(rest[l])
			}
		}
		if busy < 0 {
			return
		}
		// An idle lane reruns a busy lane's operands (valid memory of the
		// right length) into an accumulator nobody reads.
		spare, upper := rest[busy], false
		for l := range run {
			if idx[l] >= 0 {
				run[l], rest[l] = rest[l][:n], rest[l][n:]
				upper = upper || l >= sumSquaresLanes/2
			} else {
				run[l] = spare
			}
		}
		sumSquaresLanesPortable(&acc, &run, simdSumSquaresLanes(&acc, &run, n, upper), n, upper)
	}
}

// sumSquaresLanesPortable is the scalar body of SumSquaresEach's rounds over
// elements [from, n) of the operands: the lower four lanes, then — when one
// of them is busy — the upper four.
func sumSquaresLanesPortable(acc *[sumSquaresLanes]float64, v *[sumSquaresLanes][]float64, from, n int, upper bool) {
	if from >= n {
		return
	}
	sumSquares4Portable(acc[:4], v[0][from:n], v[1][from:n], v[2][from:n], v[3][from:n])
	if upper {
		sumSquares4Portable(acc[4:], v[4][from:n], v[5][from:n], v[6][from:n], v[7][from:n])
	}
}

// sumSquares4Portable adds the squares of four equal-length vectors to their
// four accumulators: four independent chains of dependent adds, which is as
// many as a scalar core overlaps at one element a cycle.
func sumSquares4Portable(acc, a, b, c, d []float64) {
	b, c, d = b[:len(a)], c[:len(a)], d[:len(a)]
	sa, sb, sc, sd := acc[0], acc[1], acc[2], acc[3]
	for i, v := range a {
		w, x, y := b[i], c[i], d[i]
		sa += float64(v * v)
		sb += float64(w * w)
		sc += float64(x * x)
		sd += float64(y * y)
	}
	acc[0], acc[1], acc[2], acc[3] = sa, sb, sc, sd
}

// AdamCoef carries the per-step scalars of AdamInto. OneMinusBeta1/2 and
// the bias corrections are passed precomputed so the kernel and the
// caller cannot disagree on how they round.
type AdamCoef struct {
	// GradScale multiplies every gradient before use: the global-norm
	// clipping factor, or exactly 1 (x·1 is exact) when clipping is off.
	GradScale            float64
	Beta1, OneMinusBeta1 float64
	Beta2, OneMinusBeta2 float64
	// BiasCorr1/2 are 1 − β₁ᵗ and 1 − β₂ᵗ.
	BiasCorr1, BiasCorr2 float64
	LR, Eps              float64
}

// AdamInto applies one Adam update to the flat parameter p with first and
// second moments m, v and gradient g (read-only):
//
//	gᵢ ← GradScale·g[i]
//	m[i] = β₁·m[i] + (1−β₁)·gᵢ        v[i] = β₂·v[i] + ((1−β₂)·gᵢ)·gᵢ
//	p[i] −= (LR·(m[i]/bc₁)) / (√(v[i]/bc₂) + ε)
//
// with every operation rounded separately in exactly that association —
// the scalar optimiser loop this replaces. All operations are elementwise
// and correctly rounded (the vector kernels' reciprocal form of m/bc₁ and
// v/bc₂ included: TestAdamReciprocalDivisionExact), so the vector kernels
// are bit-identical to the portable loop.
func AdamInto(p, m, v, g []float64, c *AdamCoef) {
	if len(m) != len(p) || len(v) != len(p) || len(g) != len(p) {
		panic(fmt.Sprintf("mat: AdamInto lengths p=%d m=%d v=%d g=%d", len(p), len(m), len(v), len(g)))
	}
	adamPortable(p, m, v, g, c, simdAdamInto(p, m, v, g, c))
}

// adamPortable is the scalar body of AdamInto over elements [from, len(p)).
func adamPortable(p, m, v, g []float64, c *AdamCoef, from int) {
	for i := from; i < len(p); i++ {
		gi := g[i] * c.GradScale
		mi := float64(c.Beta1*m[i]) + float64(c.OneMinusBeta1*gi)
		vi := float64(c.Beta2*v[i]) + float64(float64(c.OneMinusBeta2*gi)*gi)
		m[i], v[i] = mi, vi
		p[i] -= c.LR * (mi / c.BiasCorr1) / (math.Sqrt(vi/c.BiasCorr2) + c.Eps)
	}
}
