//go:build amd64

package mat

import "os"

// SIMD dispatch for the forward inference GEMM (see gemm_amd64.s). The
// kernels vectorise across output columns — each vector lane holds one
// output's own ascending-k accumulator — with separate multiply and add
// instructions (FMA contraction would change rounding), so SIMD results
// are bit-identical to the scalar kernels on every input.

//go:noescape
func gemmRowMajorAVX512(dst, x, w *float64, lanes, n, m, ld int)

//go:noescape
func gemmRowMajorAVX2(dst, x, w *float64, lanes, n, m, ld int)

//go:noescape
func vecRecip1pAVX512(v *float64, n int)

//go:noescape
func vecRecip1pAVX2(v *float64, n int)

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// simdGEMMLevel is 0 (scalar only), 2 (AVX2) or 3 (AVX-512F), detected
// once at startup. AOVLIS_NOSIMD=1 forces the portable scalar path — the
// escape hatch for benchmarking the fallback and for debugging suspected
// kernel issues without rebuilding. simdFMA reports CPUID.1:ECX bit 12 at
// a non-zero level: the kernels that fuse (the exact transcendentals, the
// Adam reciprocal divisions) run only with it, the others never fuse.
var simdGEMMLevel, simdFMA = detectGEMMLevel()

func detectGEMMLevel() (level int, fma bool) {
	if os.Getenv("AOVLIS_NOSIMD") != "" {
		return 0, false
	}
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return 0, false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const fma3, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return 0, false
	}
	// The OS must context-switch the wide register state: XCR0 bits 1-2
	// (XMM/YMM) for AVX, plus bits 5-7 (opmask, ZMM) for AVX-512.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return 0, false
	}
	fma = c1&fma3 != 0
	_, b7, _, _ := cpuidex(7, 0)
	const avx2, avx512f = 1 << 5, 1 << 16
	if b7&avx512f != 0 && xcr0&0xe6 == 0xe6 {
		return 3, fma
	}
	if b7&avx2 != 0 {
		return 2, fma
	}
	return 0, false
}

// SIMDGEMM names the active forward-GEMM kernel ("avx512", "avx2" or
// "scalar") so benchmarks and the daemon's diagnostics can record which
// path produced their numbers.
func SIMDGEMM() string {
	switch simdGEMMLevel {
	case 3:
		return "avx512"
	case 2:
		return "avx2"
	default:
		return "scalar"
	}
}

// simdRecip1pInto runs the vectorised in-place 1/(1+v) over as much of v
// as the active vector width covers, finishing the tail scalar. It
// reports false when no SIMD level is active.
func simdRecip1pInto(v []float64) bool {
	if simdGEMMLevel == 0 || len(v) == 0 {
		return false
	}
	var nv int
	if simdGEMMLevel == 3 {
		nv = len(v) &^ 7
		if nv > 0 {
			vecRecip1pAVX512(&v[0], nv)
		}
	} else {
		nv = len(v) &^ 3
		if nv > 0 {
			vecRecip1pAVX2(&v[0], nv)
		}
	}
	for i := nv; i < len(v); i++ {
		v[i] = 1 / (1 + v[i])
	}
	return true
}

// simdGEMMInto runs the vectorised kernel over the row-major weight w
// (n×m) when one is active, lane l's outputs starting at dst[l·ld], and
// finishes the sub-block column tail with the portable loop. It reports
// false when the caller must run the portable loop over every column
// instead: no SIMD level, no whole column block, or nothing for the vector
// kernel to read.
func simdGEMMInto(dst []float64, ld int, x []float64, lanes int, w *Matrix) bool {
	if simdGEMMLevel == 0 {
		return false
	}
	n, m := w.Rows, w.Cols
	var mAsm int
	if simdGEMMLevel == 3 {
		mAsm = m &^ 7
	} else {
		mAsm = m &^ 3
	}
	if mAsm == 0 || lanes == 0 || n == 0 {
		return false
	}
	if simdGEMMLevel == 3 {
		gemmRowMajorAVX512(&dst[0], &x[0], &w.Data[0], lanes, n, m, ld)
	} else {
		gemmRowMajorAVX2(&dst[0], &x[0], &w.Data[0], lanes, n, m, ld)
	}
	if mAsm < m {
		gemmRowMajorPortable(dst, ld, x, lanes, w, mAsm)
	}
	return true
}
