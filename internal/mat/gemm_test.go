package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestFwdGEMMSIMDMatchesPortable pins the dispatching GEMM — whatever
// kernel is active on this machine — bit-identical to the portable
// row-major loop over every column, across lane counts, output widths
// around every block boundary of both vector kernels (32/16/8/4 and their
// tails), and inputs with exact and negative zeros. On machines without
// SIMD this degenerates to portable-vs-portable, which still pins the bias
// pass.
func TestFwdGEMMSIMDMatchesPortable(t *testing.T) {
	t.Logf("active kernel: %s", SIMDGEMM())
	rng := rand.New(rand.NewSource(3))
	for _, lanes := range []int{0, 1, 2, 3, 8} {
		for _, m := range []int{1, 3, 4, 7, 8, 9, 16, 33, 48, 64, 128} {
			for _, n := range []int{1, 2, 96} {
				w := randMatrixFor(rng, n, m)
				x := randMatrixFor(rng, lanes, n)
				bias := randMatrixFor(rng, 1, m).Data
				got := make([]float64, lanes*m)
				want := make([]float64, lanes*m)
				FwdGEMMBiasInto(got, x.Data, lanes, w, nil, bias)
				gemmRowMajorPortable(want, m, x.Data, lanes, w, 0)
				addBiasRows(want, m, lanes, bias)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("lanes=%d m=%d n=%d elem %d: %x != %x",
							lanes, m, n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestFwdGEMMStrideWritesOnlyItsColumns pins the strided form: written
// into column block [col, col+m) of a lanes × ld buffer, every lane's
// outputs carry the bits of the contiguous GEMM, on the vector kernel and
// the portable loop alike, and no other element of the buffer is touched —
// the four gate GEMMs of a fused LSTM step share one preactivation row.
func TestFwdGEMMStrideWritesOnlyItsColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	for _, lanes := range []int{1, 2, 3, 8} {
		for _, m := range []int{3, 8, 9, 16, 32, 48} {
			for _, pad := range []int{0, 1, 5, 3 * m} {
				n, ld := 37, m+pad
				w := randMatrixFor(rng, n, m)
				x := randMatrixFor(rng, lanes, n)
				bias := randMatrixFor(rng, 1, m).Data
				want := make([]float64, lanes*m)
				FwdGEMMBiasInto(want, x.Data, lanes, w, nil, bias)
				col := pad / 2
				buf := make([]float64, lanes*ld)
				for i := range buf {
					buf[i] = sentinel
				}
				FwdGEMMBiasStrideInto(buf[col:], ld, x.Data, lanes, w, bias)
				for l := 0; l < lanes; l++ {
					for j := 0; j < ld; j++ {
						got := math.Float64bits(buf[l*ld+j])
						if j < col || j >= col+m {
							if got != math.Float64bits(sentinel) {
								t.Fatalf("lanes=%d m=%d ld=%d: element (%d, %d) outside the block was written", lanes, m, ld, l, j)
							}
							continue
						}
						if w := math.Float64bits(want[l*m+j-col]); got != w {
							t.Fatalf("lanes=%d m=%d ld=%d lane %d col %d: %x, contiguous %x", lanes, m, ld, l, j-col, got, w)
						}
					}
				}
			}
		}
	}
}

// TestFwdGEMMNoBias pins the nil-bias path of the dispatcher to the tape's
// MatMul, lane by lane.
func TestFwdGEMMNoBias(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := randMatrixFor(rng, 17, 24)
	x := randMatrixFor(rng, 4, 17)
	got := make([]float64, 4*24)
	FwdGEMMBiasInto(got, x.Data, 4, w, nil, nil)
	want := MatMul(x, w)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("elem %d: %v != %v", i, got[i], want.Data[i])
		}
	}
}

// BenchmarkFwdGEMM measures the dispatched kernel at the CLSTM hot shape
// (context 96 → packed gates 128) against the portable row-major loop, per
// lane. The SIMD kernel is the load-bearing half of the micro-batching
// speedup (BENCH.md §3b).
func BenchmarkFwdGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, m = 96, 128
	w := randMatrixFor(rng, n, m)
	bias := randMatrixFor(rng, 1, m).Data
	for _, lanes := range []int{1, 4, 8} {
		x := randMatrixFor(rng, lanes, n)
		dst := make([]float64, lanes*m)
		b.Run(fmt.Sprintf("%s/lanes=%d", SIMDGEMM(), lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FwdGEMMBiasInto(dst, x.Data, lanes, w, nil, bias)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lanes), "ns/lane")
		})
		b.Run(fmt.Sprintf("portable/lanes=%d", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmRowMajorPortable(dst, m, x.Data, lanes, w, 0)
				addBiasRows(dst, m, lanes, bias)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lanes), "ns/lane")
		})
	}
}
