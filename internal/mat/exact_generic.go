//go:build !amd64

package mat

// Portable stubs: without the amd64 kernels expNegInto and tanhInto make
// the math call for every element.

func simdExpNegInto(v []float64) int { return 0 }

func simdTanhInto(dst, src []float64) int { return 0 }

func simdLSTMGates(h, cNext, tanhC, pre, cPrev []float64) bool { return false }
