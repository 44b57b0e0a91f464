package mat

import "fmt"

// Lane-stacked inference kernels for core.InferPlan: B prediction lanes go
// through one GEMM over B stacked context rows instead of a GEMV each, so
// each weight element is loaded once per lane *block* instead of
// once per segment. Bit-exactness carries over from the single-segment
// kernels by construction: every output element dst[b][j] is one
// register-held accumulator summed over k in increasing order — the
// per-column summation order of the tape's MatMul — so a B-lane batch
// produces the same float bits as B independent single-segment calls
// (held by TestFwdGEMMBiasLanesMatchSingleLane and the golden batch tests
// in internal/core and the root package).

// FwdGEMMBiasInto is the dispatching forward GEMM + bias of the fused
// inference engine: dst and x are flat row-major buffers holding `lanes`
// rows (dst lanes×m, x lanes×n) and w is the ROW-MAJOR n×m weight, the
// layout every parameter matrix already has and both kernels read. With an
// active SIMD level the vector kernel (gemm_amd64.s) runs over the column
// blocks and gemmRowMajorPortable over the rest; without one the portable
// loop takes every column. Both produce identical float bits: every output
// is a single accumulator summed over k in ascending order with no FMA
// contraction, so kernel choice can never change a score. The bias, when
// non-nil, is added row-wise in a separate pass after the full GEMM — the
// operation order of the tape's MatMul+Add.
//
// wt is a transposed layout nothing keeps any more: a caller may still pass
// it (or nil), and it is not read.
func FwdGEMMBiasInto(dst, x []float64, lanes int, w, wt *Matrix, bias []float64) {
	n, m := w.Rows, w.Cols
	if len(x) != lanes*n || len(dst) != lanes*m {
		panic(fmt.Sprintf("mat: FwdGEMMBiasInto buffers x[%d] dst[%d] for %d lanes of %dx%d",
			len(x), len(dst), lanes, n, m))
	}
	if bias != nil && len(bias) != m {
		panic(fmt.Sprintf("mat: FwdGEMMBiasInto bias length %d, want %d", len(bias), m))
	}
	gemmBias(dst, m, x, lanes, w, bias)
}

// FwdGEMMBiasStrideInto is FwdGEMMBiasInto into a wider destination: lane
// l's m outputs land in dst[l·ld : l·ld+m], and nothing else in dst is
// written. A fused LSTM step runs one per gate, each writing its column
// block of the lanes × 4H preactivation matrix (dst = pre[g·H:], ld = 4H)
// straight from that gate's own parameter matrix, so the step reads the
// weights where the model keeps them and no packed copy exists. The bits
// are those of one GEMM over the four gates side by side: an output's sum
// never depends on the columns beside it.
func FwdGEMMBiasStrideInto(dst []float64, ld int, x []float64, lanes int, w *Matrix, bias []float64) {
	n, m := w.Rows, w.Cols
	if ld < m || len(x) != lanes*n || (lanes > 0 && len(dst) < (lanes-1)*ld+m) {
		panic(fmt.Sprintf("mat: FwdGEMMBiasStrideInto buffers x[%d] dst[%d] (stride %d) for %d lanes of %dx%d",
			len(x), len(dst), ld, lanes, n, m))
	}
	if bias != nil && len(bias) != m {
		panic(fmt.Sprintf("mat: FwdGEMMBiasStrideInto bias length %d, want %d", len(bias), m))
	}
	gemmBias(dst, ld, x, lanes, w, bias)
}

// gemmBias is the shared body of the GEMM entry points, shapes checked.
func gemmBias(dst []float64, ld int, x []float64, lanes int, w *Matrix, bias []float64) {
	if lanes == 0 {
		return
	}
	if !simdGEMMInto(dst, ld, x, lanes, w) {
		gemmRowMajorPortable(dst, ld, x, lanes, w, 0)
	}
	if bias != nil {
		addBiasRows(dst, ld, lanes, bias)
	}
}

// gemmRowMajorPortable computes columns [from, m) of dst = x·w for `lanes`
// stacked rows over the row-major n×m weight w, lane l's row starting at
// dst[l·ld]: four output columns per pass, each its own register
// accumulator over ascending k, the explicit float64 conversions rounding
// every product before its add. It is the whole GEMM where no vector kernel
// runs and the sub-block column tail where one does.
func gemmRowMajorPortable(dst []float64, ld int, x []float64, lanes int, w *Matrix, from int) {
	n, m, wd := w.Rows, w.Cols, w.Data
	for l := 0; l < lanes; l++ {
		xr := x[l*n : l*n+n]
		dr := dst[l*ld : l*ld+m]
		j := from
		for ; j+4 <= m; j += 4 {
			var s0, s1, s2, s3 float64
			off := j
			for _, xv := range xr {
				r := wd[off : off+4 : off+4]
				s0 += float64(xv * r[0])
				s1 += float64(xv * r[1])
				s2 += float64(xv * r[2])
				s3 += float64(xv * r[3])
				off += m
			}
			dr[j], dr[j+1], dr[j+2], dr[j+3] = s0, s1, s2, s3
		}
		for ; j < m; j++ {
			var s float64
			for k, xv := range xr {
				s += float64(xv * wd[k*m+j])
			}
			dr[j] = s
		}
	}
}

// addBiasRows adds bias to the first len(bias) elements of each of the
// `lanes` rows of dst, row l starting at dst[l·ld] — the single bias pass
// shared by every GEMM+bias entry point (always AFTER the full GEMM,
// matching the tape's MatMul-then-Add order).
func addBiasRows(dst []float64, ld, lanes int, bias []float64) {
	m := len(bias)
	for b := 0; b < lanes; b++ {
		row := dst[b*ld : b*ld+m]
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
