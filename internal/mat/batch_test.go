package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randMatrixFor fills a matrix with signed values including exact zeros and
// negative zeros, the inputs that historically distinguished kernels.
func randMatrixFor(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		switch rng.Intn(10) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// TestMatMatTToMatchesVecMatTTo pins the batched GEMM bit-identical to B
// independent single-lane GEMVs across lane counts (odd and even, hitting
// the lane-pair kernel and the tail), output widths that exercise the
// 4-column block and its tail, and context widths around the unroll
// boundaries.
func TestMatMatTToMatchesVecMatTTo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, B := range []int{1, 2, 3, 5, 8, 16} {
		for _, m := range []int{1, 3, 4, 7, 64, 128} {
			for _, n := range []int{1, 2, 5, 96} {
				x := randMatrixFor(rng, B, n)
				wt := randMatrixFor(rng, m, n)
				got := New(B, m)
				MatMatTTo(got, x, wt)
				want := make([]float64, m)
				for b := 0; b < B; b++ {
					VecMatTTo(want, x.Row(b), wt)
					for j, w := range want {
						if g := got.At(b, j); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("B=%d m=%d n=%d lane %d col %d: %x != %x", B, m, n, b, j, math.Float64bits(g), math.Float64bits(w))
						}
					}
				}
			}
		}
	}
}

// TestFwdGEMMBiasLanesMatchSingleLane pins the biased portable GEMM to its
// own one-lane form per lane.
func TestFwdGEMMBiasLanesMatchSingleLane(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, B := range []int{1, 2, 7} {
		x := randMatrixFor(rng, B, 33)
		wt := randMatrixFor(rng, 13, 33)
		bias := randMatrixFor(rng, 1, 13).Data
		got := New(B, 13)
		FwdGEMMBiasInto(got.Data, x.Data, B, nil, wt, bias)
		want := make([]float64, 13)
		for b := 0; b < B; b++ {
			FwdGEMMBiasInto(want, x.Row(b), 1, nil, wt, bias)
			for j, w := range want {
				if g := got.At(b, j); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("B=%d lane %d col %d: got %v want %v", B, b, j, g, w)
				}
			}
		}
	}
}

// TestLSTMGatesBatchIntoMatchesScalar pins the batched gate kernel to the
// scalar kernel per lane.
func TestLSTMGatesBatchIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const hn = 17
	for _, B := range []int{1, 2, 5} {
		pre := randMatrixFor(rng, B, 4*hn)
		preRef := pre.Clone() // the kernel consumes pre as scratch
		cPrev := randMatrixFor(rng, B, hn)
		h := New(B, hn)
		cNext := New(B, hn)
		LSTMGatesBatchInto(h, cNext, pre, cPrev)
		wantH := make([]float64, hn)
		wantC := make([]float64, hn)
		for b := 0; b < B; b++ {
			LSTMGatesInto(wantH, wantC, preRef.Row(b), cPrev.Row(b))
			for j := 0; j < hn; j++ {
				if math.Float64bits(h.At(b, j)) != math.Float64bits(wantH[j]) ||
					math.Float64bits(cNext.At(b, j)) != math.Float64bits(wantC[j]) {
					t.Fatalf("B=%d lane %d unit %d mismatch", B, b, j)
				}
			}
		}
	}
}

// TestMatMatTToDims pins the dimension panics.
func TestMatMatTToDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched dims did not panic")
		}
	}()
	MatMatTTo(New(2, 4), New(2, 3), New(4, 5))
}

// BenchmarkMatMatTTo measures the batched GEMM against B repeated GEMVs at
// the CLSTM hot shape (context 96 → packed gates 128): the per-lane
// amortisation of weight loads is the core of the micro-batching win.
func BenchmarkMatMatTTo(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, m = 96, 128
	wt := randMatrixFor(rng, m, n)
	for _, B := range []int{1, 2, 4, 8, 16} {
		x := randMatrixFor(rng, B, n)
		dst := New(B, m)
		b.Run(fmt.Sprintf("gemm/B=%d", B), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMatTTo(dst, x, wt)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(B), "ns/lane")
		})
		b.Run(fmt.Sprintf("gemv/B=%d", B), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for l := 0; l < B; l++ {
					VecMatTTo(dst.Row(l), x.Row(l), wt)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(B), "ns/lane")
		})
	}
}
