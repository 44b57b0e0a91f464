//go:build amd64

package mat

// SIMD dispatch for the fused cell-step kernels (cell_amd64.s). They run at
// the AVX-512 level only, over whole blocks of 16 columns per gate; AVX2
// and the column tail keep the per-gate kernels.

//go:noescape
func gatesGEMVAVX512(pre, x *float64, w, b *[4]*float64, n, m int)

//go:noescape
func gatesGEMVTAVX512(dst, dpre *float64, wt *[4]*float64, h, c int)

//go:noescape
func gatesATStepsAVX512(dw *[4]*float64, a, b *float64, n, m, steps int)

// simdGatesGEMVBias runs the fused forward kernel over the leading whole
// 16-column blocks of every gate and returns how many columns that was.
func simdGatesGEMVBias(pre, x []float64, w, b *[4]*Matrix) int {
	n, m := w[0].Rows, w[0].Cols
	done := m &^ 15
	if simdGEMMLevel != 3 || done == 0 || n == 0 {
		return 0
	}
	var wp, bp [4]*float64
	for g := range wp {
		wp[g], bp[g] = &w[g].Data[0], &b[g].Data[0]
	}
	gatesGEMVAVX512(&pre[0], &x[0], &wp, &bp, n, m)
	return done
}

// simdGatesGEMVT is simdGatesGEMVBias for the backward product.
func simdGatesGEMVT(dst, dpre []float64, wt *[4]*Matrix) int {
	h, c := wt[0].Rows, wt[0].Cols
	done := c &^ 15
	if simdGEMMLevel != 3 || done == 0 || h == 0 {
		return 0
	}
	var wp [4]*float64
	for g := range wp {
		wp[g] = &wt[g].Data[0]
	}
	gatesGEMVTAVX512(&dst[0], &dpre[0], &wp, h, c)
	return done
}

// simdGatesATSteps runs the fused weight-gradient kernel over the leading
// columns of every gate the vector width covers and returns how many that
// was. Shapes are the caller's to check: a holds steps×n values, b at
// least (steps−1)·4m + 4m.
func simdGatesATSteps(dw *[4]*Matrix, a, b []float64, steps int) int {
	n, m := dw[0].Rows, dw[0].Cols
	done := m &^ 15
	if simdGEMMLevel != 3 || done == 0 || n == 0 || steps == 0 ||
		len(a) != steps*n || len(b) < steps*4*m {
		return 0
	}
	var dp [4]*float64
	for g := range dp {
		dp[g] = &dw[g].Data[0]
	}
	gatesATStepsAVX512(&dp, &a[0], &b[0], n, m, steps)
	return done
}
