//go:build !amd64

package mat

// Non-amd64 platforms have no SIMD forward-GEMM kernel; every call takes
// the portable row-major loop (gemmRowMajorPortable), which is
// bit-identical by construction.

const simdGEMMLevel = 0

// SIMDGEMM names the active forward-GEMM kernel; always "scalar" here.
func SIMDGEMM() string { return "scalar" }

func simdGEMMInto(dst []float64, ld int, x []float64, lanes int, w *Matrix) bool { return false }

func simdRecip1pInto(v []float64) bool { return false }
