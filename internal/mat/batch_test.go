package mat

import (
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

// TestFwdGEMMMatchesVecMatTTo pins the batched row-major GEMM bit-identical
// to B independent GEMVs over the transposed weight — the decoder head's
// input-gradient kernel — across lane counts, output widths that exercise
// the 4-column block and its tail, and context widths around the unroll
// boundaries.
func TestFwdGEMMMatchesVecMatTTo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, B := range []int{1, 2, 3, 5, 8, 16} {
		for _, m := range []int{1, 3, 4, 7, 64, 128} {
			for _, n := range []int{1, 2, 5, 96} {
				x := randMatrixFor(rng, B, n)
				w := randMatrixFor(rng, n, m)
				wt := Transpose(w)
				got := New(B, m)
				FwdGEMMBiasInto(got.Data, x.Data, B, w, nil, nil)
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

// TestFwdGEMMBiasLanesMatchSingleLane pins the biased GEMM to its own
// one-lane form per lane.
func TestFwdGEMMBiasLanesMatchSingleLane(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, B := range []int{1, 2, 7} {
		x := randMatrixFor(rng, B, 33)
		w := randMatrixFor(rng, 33, 13)
		bias := randMatrixFor(rng, 1, 13).Data
		got := New(B, 13)
		FwdGEMMBiasInto(got.Data, x.Data, B, w, nil, bias)
		want := make([]float64, 13)
		for b := 0; b < B; b++ {
			FwdGEMMBiasInto(want, x.Row(b), 1, w, nil, bias)
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

// TestFwdGEMMDims pins the dimension panics: buffers that do not hold
// `lanes` rows of the weight's shape, and a bias of the wrong width.
func TestFwdGEMMDims(t *testing.T) {
	w := New(3, 4)
	for name, call := range map[string]func(){
		"x":    func() { FwdGEMMBiasInto(make([]float64, 8), make([]float64, 5), 2, w, nil, nil) },
		"dst":  func() { FwdGEMMBiasInto(make([]float64, 7), make([]float64, 6), 2, w, nil, nil) },
		"bias": func() { FwdGEMMBiasInto(make([]float64, 8), make([]float64, 6), 2, w, nil, make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mismatched %s did not panic", name)
				}
			}()
			call()
		}()
	}
}
