//go:build amd64

package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestGEMMKernelsStrided runs each vector kernel this machine supports
// directly — the dispatcher only ever reaches the widest — over strided
// destinations, against the portable loop: the vector columns must carry the
// portable bits and the kernel must leave the tail columns and the stride
// padding alone (the Go wrapper fills the tail).
func TestGEMMKernelsStrided(t *testing.T) {
	kernels := map[string]func(dst, x, w *float64, lanes, n, m, ld int){}
	blocks := map[string]int{}
	if simdGEMMLevel >= 2 {
		kernels["avx2"], blocks["avx2"] = gemmRowMajorAVX2, 4
	}
	if simdGEMMLevel == 3 {
		kernels["avx512"], blocks["avx512"] = gemmRowMajorAVX512, 8
	}
	if len(kernels) == 0 {
		t.Skip("no vector GEMM kernel on this machine")
	}
	rng := rand.New(rand.NewSource(11))
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	for name, kernel := range kernels {
		for _, lanes := range []int{1, 2, 5} {
			for _, m := range []int{4, 8, 12, 16, 24, 32, 40, 56, 64} {
				if m < blocks[name] {
					continue
				}
				for _, pad := range []int{0, 3, 2 * m} {
					n, ld := 29, m+pad
					w := randMatrixFor(rng, n, m)
					x := randMatrixFor(rng, lanes, n)
					want := make([]float64, lanes*ld)
					gemmRowMajorPortable(want, ld, x.Data, lanes, w, 0)
					got := make([]float64, lanes*ld)
					for i := range got {
						got[i] = sentinel
					}
					kernel(&got[0], &x.Data[0], &w.Data[0], lanes, n, m, ld)
					mAsm := m &^ (blocks[name] - 1)
					for l := 0; l < lanes; l++ {
						for j := 0; j < ld; j++ {
							g := math.Float64bits(got[l*ld+j])
							if j >= mAsm {
								if g != math.Float64bits(sentinel) {
									t.Fatalf("%s lanes=%d m=%d ld=%d: wrote (%d, %d) past its column blocks", name, lanes, m, ld, l, j)
								}
								continue
							}
							if w := math.Float64bits(want[l*ld+j]); g != w {
								t.Fatalf("%s lanes=%d m=%d ld=%d (%d, %d): %x, portable %x", name, lanes, m, ld, l, j, g, w)
							}
						}
					}
				}
			}
		}
	}
}
