//go:build amd64

package mat

import "testing"

// TestFastMathDirectKernels calls the AVX2 and AVX-512 fast-math kernels
// directly — not just the active dispatch level — on the vectors
// TestFastMathPortableSIMDBitIdentical uses, against the scalar forms.
func TestFastMathDirectKernels(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 67} {
		src := specialsVector(n, 40, int64(n)*7919)
		wantExp := make([]float64, n)
		wantTanh := make([]float64, n)
		for i, x := range src {
			wantExp[i] = FastExp(-x)
			wantTanh[i] = FastTanh(x)
		}

		// Direct AVX2 call on the widest 4-aligned prefix.
		if simdGEMMLevel >= 2 {
			if nv := n &^ 3; nv > 0 {
				g := append([]float64(nil), src...)
				fastExpNegAVX2(&g[0], nv)
				compareBits(t, "fastExpNegAVX2", nv, g[:nv], wantExp[:nv])
				g2 := make([]float64, n)
				fastTanhAVX2(&g2[0], &src[0], nv)
				compareBits(t, "fastTanhAVX2", nv, g2[:nv], wantTanh[:nv])
			}
		}
		// Direct AVX-512 call on the widest 8-aligned prefix.
		if simdGEMMLevel >= 3 {
			if nv := n &^ 7; nv > 0 {
				g := append([]float64(nil), src...)
				fastExpNegAVX512(&g[0], nv)
				compareBits(t, "fastExpNegAVX512", nv, g[:nv], wantExp[:nv])
				g2 := make([]float64, n)
				fastTanhAVX512(&g2[0], &src[0], nv)
				compareBits(t, "fastTanhAVX512", nv, g2[:nv], wantTanh[:nv])
			}
		}
	}
}
