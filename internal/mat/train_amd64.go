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
func adamAVX2(p, m, v, grad *float64, n int, c *AdamCoef)

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
