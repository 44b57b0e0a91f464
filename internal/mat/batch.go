package mat

import "fmt"

// Lane-stacked inference kernels for core.InferPlan: B prediction lanes go
// through one GEMM over B stacked context rows instead of a GEMV each, so
// each packed weight element is loaded once per lane *block* instead of
// once per segment. Bit-exactness carries
// over from the single-segment kernels by construction: every output
// element dst[b][j] is one register-held accumulator summed over k in
// increasing order — exactly the per-column summation order of VecMatTTo
// (and therefore of the tape's MatMulTo) — so a B-lane batch produces the
// same float bits as B independent single-segment calls (pinned by
// TestMatMatTToMatchesVecMatTTo and the golden batch tests in
// internal/core and the root package).

// MatMatTTo computes the GEMM dst = x · wtᵀ over stacked rows: x is B×n
// (one context row per lane), wt is the TRANSPOSED weight matrix (m×n for
// a logical n×m weight) and dst is B×m. Row b of dst equals
// VecMatTTo(dst.Row(b), x.Row(b), wt) bit for bit: each dst[b][j] is a
// single register accumulator over k in ascending order, with explicit
// float64 conversions rounding every product before its add (no FMA
// contraction).
//
// The blocking is two lanes × four output columns (8 independent
// accumulator chains): the four weight rows of a column block are loaded
// once per lane pair instead of once per lane, which halves the dominant
// load traffic of the single-lane kernel, and the extra dependency chains
// keep the FP add ports saturated. Per (lane, column) the accumulation
// order is untouched — blocking changes which sums proceed concurrently,
// never the order within one sum.
func MatMatTTo(dst, x, wt *Matrix) {
	if x.Cols != wt.Cols || dst.Cols != wt.Rows || dst.Rows != x.Rows {
		panic(dimPanic("MatMatTTo", dst, x, wt))
	}
	matMatTPortable(dst.Data, x.Data, x.Rows, wt)
}

// matMatTPortable is the flat-slice core of MatMatTTo, shared with the
// FwdGEMMBiasInto dispatcher's scalar fallback.
func matMatTPortable(dst, x []float64, lanes int, wt *Matrix) {
	n := wt.Cols
	m := wt.Rows
	b := 0
	for ; b+2 <= lanes; b += 2 {
		x0 := x[b*n : b*n+n][:n]
		x1 := x[(b+1)*n : (b+1)*n+n][:n]
		d0 := dst[b*m : b*m+m]
		d1 := dst[(b+1)*m : (b+1)*m+m]
		j := 0
		for ; j+4 <= m; j += 4 {
			r0 := wt.Data[j*n : j*n+n][:n]
			r1 := wt.Data[(j+1)*n : (j+1)*n+n][:n]
			r2 := wt.Data[(j+2)*n : (j+2)*n+n][:n]
			r3 := wt.Data[(j+3)*n : (j+3)*n+n][:n]
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			for k := 0; k < n; k++ {
				w0, w1, w2, w3 := r0[k], r1[k], r2[k], r3[k]
				xv := x0[k]
				s00 += float64(xv * w0)
				s01 += float64(xv * w1)
				s02 += float64(xv * w2)
				s03 += float64(xv * w3)
				xw := x1[k]
				s10 += float64(xw * w0)
				s11 += float64(xw * w1)
				s12 += float64(xw * w2)
				s13 += float64(xw * w3)
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; j < m; j++ {
			row := wt.Data[j*n : j*n+n][:n]
			var s0, s1 float64
			for k := 0; k < n; k++ {
				w := row[k]
				s0 += float64(x0[k] * w)
				s1 += float64(x1[k] * w)
			}
			d0[j], d1[j] = s0, s1
		}
	}
	if b < lanes {
		VecMatTTo(dst[b*m:b*m+m], x[b*n:b*n+n], wt)
	}
}

// FwdGEMMBiasInto is the dispatching forward GEMM + bias of the fused
// inference engine: dst and x are flat row-major buffers holding `lanes`
// rows (dst lanes×m, x lanes×n), wt is the TRANSPOSED packed weight (m×n)
// every fused layer carries, and w — when non-nil — is the same weight in
// ROW-MAJOR n×m layout, which is what the SIMD kernels (gemm_amd64.s)
// need for contiguous output-column loads. With an active SIMD level and a
// row-major layout the vector kernel runs; otherwise the portable
// transposed kernel does. Both produce identical float bits: every output
// is a single accumulator summed over k in ascending order with no FMA
// contraction, so kernel choice can never change a score. The bias, when
// non-nil, is added row-wise in a separate pass after the full GEMM —
// the operation order of the tape's MatMul+Add.
func FwdGEMMBiasInto(dst, x []float64, lanes int, w, wt *Matrix, bias []float64) {
	n, m := wt.Cols, wt.Rows
	if len(x) != lanes*n || len(dst) != lanes*m {
		panic(fmt.Sprintf("mat: FwdGEMMBiasInto buffers x[%d] dst[%d] for %d lanes of (%dx%d)ᵀ",
			len(x), len(dst), lanes, m, n))
	}
	if w != nil && (w.Rows != n || w.Cols != m) {
		panic(fmt.Sprintf("mat: FwdGEMMBiasInto row-major layout %dx%d, want %dx%d", w.Rows, w.Cols, n, m))
	}
	if bias != nil && len(bias) != m {
		panic(fmt.Sprintf("mat: FwdGEMMBiasInto bias length %d, want %d", len(bias), m))
	}
	if w == nil || !simdGEMMInto(dst, x, lanes, w) {
		matMatTPortable(dst, x, lanes, wt)
	}
	if bias != nil {
		addBiasRows(dst, lanes, bias)
	}
}

// addBiasRows adds bias to each of the `lanes` rows of the flat row-major
// buffer dst — the single bias pass shared by every GEMM+bias entry point
// (always AFTER the full GEMM, matching the tape's MatMul-then-Add order).
func addBiasRows(dst []float64, lanes int, bias []float64) {
	m := len(bias)
	for b := 0; b < lanes; b++ {
		row := dst[b*m : b*m+m]
		for j, bv := range bias {
			row[j] += bv
		}
	}
}

// LSTMGatesBatchInto applies the fused LSTM gate nonlinearities to B
// stacked lanes: row b of every matrix is one lane's state, transformed by
// exactly the code of LSTMGatesInto — the batch form exists so the batched
// plan can keep lane state in contiguous matrices, not for extra
// arithmetic blocking (the gate kernel is elementwise; nothing amortises
// across lanes).
func LSTMGatesBatchInto(h, cNext, pre, cPrev *Matrix) {
	if h.Rows != pre.Rows || cNext.Rows != pre.Rows || cPrev.Rows != pre.Rows {
		panic(dimPanic("LSTMGatesBatchInto", h, pre, cPrev))
	}
	for b := 0; b < pre.Rows; b++ {
		LSTMGatesInto(h.Row(b), cNext.Row(b), pre.Row(b), cPrev.Row(b))
	}
}

func dimPanic(op string, a, b, c *Matrix) string {
	return fmt.Sprintf("mat: %s dims %dx%d, %dx%d, %dx%d",
		op, a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
}
