//go:build amd64

package mat

// SIMD dispatch for the training kernels (see train_amd64.s). They ride
// simdGEMMLevel — the same CPUID detection and AOVLIS_NOSIMD escape hatch
// as the forward GEMM.

//go:noescape
func atStepsAVX512(dst, a, b *float64, n, m, ldb, steps int)

//go:noescape
func atStepsAVX2(dst, a, b *float64, n, m, ldb, steps int)

//go:noescape
func gatesBackAVX512(dpre, carry, dh, act, tanhC, cPrev *float64, h, n int)

//go:noescape
func gatesBackAVX2(dpre, carry, dh, act, tanhC, cPrev *float64, h, n int)

//go:noescape
func adamAVX512(p, m, v, grad *float64, n int, c *AdamCoef)

//go:noescape
func sqrtAVX512(dst, src *float64, n int) int

//go:noescape
func adamAVX2(p, m, v, grad *float64, n int, c *AdamCoef)

// The register-block kernels (block_amd64.s).

//go:noescape
func transposeAVX512(dst, src *float64, rows, cols int)

//go:noescape
func transposeAVX2(dst, src *float64, rows, cols int)

//go:noescape
func sumSqAVX512(v *float64, n int) float64

//go:noescape
func sumSqAVX2(v *float64, n int) float64

//go:noescape
func vecAddAVX512(dst, src *float64, n int)

//go:noescape
func vecAddAVX2(dst, src *float64, n int)

// simdATStepsInto runs the vectorised weight-gradient accumulate over the
// leading columns the active vector width covers and returns how many
// columns that was; the caller finishes the rest with the scalar loop.
func simdATStepsInto(dst, a, b []float64, n, m, ldb, steps int) int {
	switch simdGEMMLevel {
	case 3:
		if done := m &^ 7; done > 0 {
			atStepsAVX512(&dst[0], &a[0], &b[0], n, m, ldb, steps)
			return done
		}
	case 2:
		if done := m &^ 3; done > 0 {
			atStepsAVX2(&dst[0], &a[0], &b[0], n, m, ldb, steps)
			return done
		}
	}
	return 0
}

// simdGatesBackInto runs the vectorised gate backward over as many leading
// elements as the active vector width covers and returns that count.
func simdGatesBackInto(dpre, carry, dh, act, tanhC, cPrev []float64) int {
	h := len(dh)
	switch simdGEMMLevel {
	case 3:
		if nv := h &^ 7; nv > 0 {
			gatesBackAVX512(&dpre[0], &carry[0], &dh[0], &act[0], &tanhC[0], &cPrev[0], h, nv)
			return nv
		}
	case 2:
		if nv := h &^ 3; nv > 0 {
			gatesBackAVX2(&dpre[0], &carry[0], &dh[0], &act[0], &tanhC[0], &cPrev[0], h, nv)
			return nv
		}
	}
	return 0
}

// simdAdamInto runs the vectorised Adam update over as many leading
// elements as the active vector width covers and returns that count. The
// kernels' reciprocal divisions fuse, so a CPU with AVX2 and no FMA unit
// (none was made) is left to the portable loop.
func simdAdamInto(p, m, v, g []float64, c *AdamCoef) int {
	if !simdFMA {
		return 0
	}
	switch simdGEMMLevel {
	case 3:
		if nv := len(p) &^ 7; nv > 0 {
			adamAVX512(&p[0], &m[0], &v[0], &g[0], nv, c)
			return nv
		}
	case 2:
		if nv := len(p) &^ 3; nv > 0 {
			adamAVX2(&p[0], &m[0], &v[0], &g[0], nv, c)
			return nv
		}
	}
	return 0
}

// simdTransposeInto block-transposes the leading rows and columns of the
// rows×cols matrix src that the active vector width covers and returns how
// many of each that was; the caller moves the ragged edges.
func simdTransposeInto(dst, src []float64, rows, cols int) (doneRows, doneCols int) {
	switch simdGEMMLevel {
	case 3:
		if rows >= 8 && cols >= 8 {
			transposeAVX512(&dst[0], &src[0], rows, cols)
			return rows &^ 7, cols &^ 7
		}
	case 2:
		if rows >= 4 && cols >= 4 {
			transposeAVX2(&dst[0], &src[0], rows, cols)
			return rows &^ 3, cols &^ 3
		}
	}
	return 0, 0
}

// simdSumSquares sums the squares of as many leading elements of v as the
// active vector width covers and returns the sum and that count.
func simdSumSquares(v []float64) (float64, int) {
	switch simdGEMMLevel {
	case 3:
		if nv := len(v) &^ 7; nv > 0 {
			return sumSqAVX512(&v[0], nv), nv
		}
	case 2:
		if nv := len(v) &^ 3; nv > 0 {
			return sumSqAVX2(&v[0], nv), nv
		}
	}
	return 0, 0
}

// simdVecAddInto runs the vectorised dst += src over as many leading
// elements as the active vector width covers and returns that count.
func simdVecAddInto(dst, src []float64) int {
	switch simdGEMMLevel {
	case 3:
		if nv := len(dst) &^ 7; nv > 0 {
			vecAddAVX512(&dst[0], &src[0], nv)
			return nv
		}
	case 2:
		if nv := len(dst) &^ 3; nv > 0 {
			vecAddAVX2(&dst[0], &src[0], nv)
			return nv
		}
	}
	return 0
}
