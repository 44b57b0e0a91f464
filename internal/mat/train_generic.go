//go:build !amd64

package mat

// Portable stubs: without the amd64 kernels the training engine runs the
// scalar loops in train.go.

func simdATStepsInto(dst, a, b []float64, n, m, ldb, steps int) int { return 0 }

func simdGatesBackInto(dpre, carry, dh, act, tanhC, cPrev []float64) int { return 0 }

func simdAdamInto(p, m, v, g []float64, c *AdamCoef) int { return 0 }

func simdTransposeInto(dst, src []float64, rows, cols int) (doneRows, doneCols int) { return 0, 0 }

func simdSumSquaresLanes(acc *[sumSquaresLanes]float64, v *[sumSquaresLanes][]float64, n int, upper bool) int {
	return 0
}

func simdVecAddInto(dst, src []float64) int { return 0 }
