//go:build !amd64

package mat

// Portable stubs: without the amd64 kernels a cell step loops over the
// per-gate kernels.

func simdGatesGEMVBias(pre, x []float64, w, b *[4]*Matrix) int { return 0 }

func simdGatesGEMVT(dst, dpre []float64, wt *[4]*Matrix) int { return 0 }

func simdGatesATSteps(dw *[4]*Matrix, a, b []float64, steps int) int { return 0 }
