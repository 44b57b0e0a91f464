//go:build amd64

package mat

import "math"

// SIMD dispatch for the exact transcendental kernels (see exact_amd64.s).
// They ride simdGEMMLevel — the same CPUID detection and AOVLIS_NOSIMD
// escape hatch as the forward GEMM — and additionally need the CPU's FMA
// unit, because what they reproduce is the FMA path of math.Exp.

//go:noescape
func expNegAVX512(v *float64, n int) int

//go:noescape
func expNegAVX2(v *float64, n int) int

//go:noescape
func tanhAVX512(dst, src *float64, n int) int

//go:noescape
func tanhAVX2(dst, src *float64, n int) int

// simdExactLevel is simdGEMMLevel when the exact transcendental kernels
// may stand in for math.Exp and math.Tanh, and 0 when the scalar calls must
// be made instead.
var simdExactLevel = detectExactLevel()

// detectExactLevel admits the kernels when they are this process's
// math.Exp and math.Tanh. The CPUID test is the one the math package makes
// (AVX ∧ FMA selects archExp's FMA path, which is the path the kernels
// execute); the probe after it asks the functions themselves, so anything
// else that moves them — GODEBUG=cpu.fma=off, a toolchain built with
// GOAMD64=v3 that contracts math.tanh, a later Go release with a different
// algorithm — turns the kernels off instead of forking exact mode's bits
// between vector blocks and scalar tails.
func detectExactLevel() int {
	if simdGEMMLevel < 2 || !simdFMA {
		return 0
	}
	// 96 operands over ±17.6: both tanh branches, exp's reduction over 50
	// values of k. One in three random operands already tells archExp's two
	// paths apart.
	var x, e, t [96]float64
	for i := range x {
		x[i] = (float64(i) - 47.5) * 0.37
	}
	e = x
	exactExpNegBlocks(simdGEMMLevel, e[:])
	exactTanhBlocks(simdGEMMLevel, t[:], x[:])
	for i, v := range x {
		if math.Float64bits(e[i]) != math.Float64bits(math.Exp(-v)) ||
			math.Float64bits(t[i]) != math.Float64bits(math.Tanh(v)) {
			return 0
		}
	}
	return simdGEMMLevel
}

// simdExpNegInto runs the vectorised in-place math.Exp(−v) over the whole
// vector-width blocks of v and returns how many elements that covered; the
// caller finishes the tail.
func simdExpNegInto(v []float64) int { return exactExpNegBlocks(simdExactLevel, v) }

// simdTanhInto is simdExpNegInto for dst = math.Tanh(src); dst and src may
// alias (the kernels load a block before they store it).
func simdTanhInto(dst, src []float64) int { return exactTanhBlocks(simdExactLevel, dst, src) }

// exactExpNegBlocks drives the level's kernel (8 ZMM lanes at level 3,
// 4 YMM lanes at level 2, nothing at 0) over v's whole blocks. A block the
// kernel stops at — a lane outside its guard — is finished by the scalar
// call, and the kernel resumes behind it.
func exactExpNegBlocks(level int, v []float64) int {
	if level == 0 {
		return 0
	}
	width := 1 << level
	nv := len(v) &^ (width - 1)
	for i := 0; i < nv; {
		if level == 3 {
			i += expNegAVX512(&v[i], nv-i)
		} else {
			i += expNegAVX2(&v[i], nv-i)
		}
		if i < nv {
			for j, x := range v[i : i+width] {
				v[i+j] = math.Exp(-x)
			}
			i += width
		}
	}
	return nv
}

func exactTanhBlocks(level int, dst, src []float64) int {
	if level == 0 {
		return 0
	}
	width := 1 << level
	nv := len(src) &^ (width - 1)
	for i := 0; i < nv; {
		if level == 3 {
			i += tanhAVX512(&dst[i], &src[i], nv-i)
		} else {
			i += tanhAVX2(&dst[i], &src[i], nv-i)
		}
		if i < nv {
			for j, x := range src[i : i+width] {
				dst[i+j] = math.Tanh(x)
			}
			i += width
		}
	}
	return nv
}
