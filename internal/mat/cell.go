package mat

import "fmt"

// The products of one LSTM cell step, each one call for all four gates
// (nn.TrainCell.Step and BackStep), and the window's weight gradients
// likewise (FinishBackward). Where the AVX-512 kernels run
// (cell_amd64.s) the four gates share one pass over k; elsewhere the same
// entry points loop over the per-gate kernels. Both forms are bit for bit
// the per-gate calls: every output is one accumulator, summed in the same
// order, and the fusion only decides which sums run side by side.

// GatesGEMVBiasInto computes one step's four gate preactivations,
// pre[g·m : (g+1)·m] = x·w[g] + b[g] for g = 0 … 3, every w[g] a ROW-MAJOR
// n×m matrix and every b[g] m values (len(x) = n, len(pre) = 4m). It is
// bit for bit four GEMVBiasInto calls: each output one ascending-k sum
// from +0, its bias added after the sum is complete.
func GatesGEMVBiasInto(pre, x []float64, w, b *[4]*Matrix) {
	n, m := w[0].Rows, w[0].Cols
	for g := range w {
		if w[g].Rows != n || w[g].Cols != m || len(b[g].Data) != m {
			panic(fmt.Sprintf("mat: GatesGEMVBiasInto gate %d is %dx%d + bias[%d], gate 0 %dx%d", g, w[g].Rows, w[g].Cols, len(b[g].Data), n, m))
		}
	}
	if len(x) != n || len(pre) != 4*m {
		panic(fmt.Sprintf("mat: GatesGEMVBiasInto x[%d]·(%dx%d) → pre[%d]", len(x), n, m, len(pre)))
	}
	done := simdGatesGEMVBias(pre, x, w, b)
	if done == m {
		return
	}
	for g := range w {
		dst := pre[g*m : (g+1)*m]
		if done == 0 {
			gemmBias(dst, m, x, 1, w[g], b[g].Data)
			continue
		}
		gemmRowMajorPortable(dst, m, x, 1, w[g], done)
		for j := done; j < m; j++ {
			dst[j] += b[g].Data[j]
		}
	}
}

// GatesGEMVTInto computes the input gradient of one backward step over c
// context columns, dst = Σ_g dpre_g·wt[g] with dpre_g = dpre[g·h : (g+1)·h]
// and every wt[g] a ROW-MAJOR h×c matrix (the transposed weight, len(dst) =
// c, len(dpre) = 4h). Each gate's product is a complete ascending-k sum
// from +0, and they are added in the order o, c, f, i:
// dst = ((S_o + S_c) + S_f) + S_i — bit for bit one FwdGEMMBiasInto for the
// output gate and, for each other gate, one into scratch (length c, where
// a gate's product waits on the per-gate path) followed by VecAddInto.
func GatesGEMVTInto(dst, scratch, dpre []float64, wt *[4]*Matrix) {
	h, c := wt[0].Rows, wt[0].Cols
	for g := range wt {
		if wt[g].Rows != h || wt[g].Cols != c {
			panic(fmt.Sprintf("mat: GatesGEMVTInto gate %d is %dx%d, gate 0 %dx%d", g, wt[g].Rows, wt[g].Cols, h, c))
		}
	}
	if len(dst) != c || len(scratch) != c || len(dpre) != 4*h {
		panic(fmt.Sprintf("mat: GatesGEMVTInto dpre[%d]·(%dx%d)ᵀ → dst[%d], scratch[%d]", len(dpre), h, c, len(dst), len(scratch)))
	}
	done := simdGatesGEMVT(dst, dpre, wt)
	if done == c {
		return
	}
	if done == 0 {
		gemmBias(dst, c, dpre[3*h:], 1, wt[3], nil)
		for g := 2; g >= 0; g-- {
			gemmBias(scratch, c, dpre[g*h:(g+1)*h], 1, wt[g], nil)
			VecAddInto(dst, scratch)
		}
		return
	}
	gemmRowMajorPortable(dst, c, dpre[3*h:], 1, wt[3], done)
	for g := 2; g >= 0; g-- {
		gemmRowMajorPortable(scratch, c, dpre[g*h:(g+1)*h], 1, wt[g], done)
		for j := done; j < c; j++ {
			dst[j] += scratch[j]
		}
	}
}

// GatesMatMulATStepsInto computes the four weight gradients of one cell
// over a window: dw[g] = Σ_t a_tᵀ·dpre_{g,t} for t = steps−1 … 0, where a
// holds `steps` contiguous context rows of length n and b `steps` packed
// preactivation-gradient rows of length 4m, gate g's block at offset g·m.
// Every dw[g] is n×m and overwritten. It is bit for bit four
// MatMulATStepsInto calls (ldb = 4m): each element one accumulator from
// +0, its terms for t descending, a zero context word skipped.
func GatesMatMulATStepsInto(dw *[4]*Matrix, a, b []float64, steps int) {
	n, m := dw[0].Rows, dw[0].Cols
	for g := range dw {
		if dw[g].Rows != n || dw[g].Cols != m {
			panic(fmt.Sprintf("mat: GatesMatMulATStepsInto gate %d is %dx%d, gate 0 %dx%d", g, dw[g].Rows, dw[g].Cols, n, m))
		}
	}
	done := simdGatesATSteps(dw, a, b, steps)
	for g := range dw {
		switch {
		case steps == 0:
			MatMulATStepsInto(dw[g], a, nil, 4*m, 0)
		case done == 0:
			MatMulATStepsInto(dw[g], a, b[g*m:], 4*m, steps)
		case done < m:
			matMulATStepsPortable(dw[g].Data, a, b[g*m:], n, m, 4*m, steps, done)
		}
	}
}
