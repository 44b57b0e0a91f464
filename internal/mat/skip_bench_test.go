package mat

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the dense matmul/GEMV kernels, including the
// zero-skip question: an `if av == 0 { continue }` branch in the forward
// matmul kernels pays off only when the input row actually contains zeros
// — e.g. one-hot action rows — and costs a test-and-branch per element on
// dense LSTM gate contexts. BenchmarkMatMulZeroSkip measures the branch on
// both input kinds at the CLSTM's hot shape (1×96 ctx row · 96×128 packed
// gate matrix); the recorded verdict (BENCH.md) is why MatMul is a dense
// kernel while MatMulATInto keeps its skip.

// matMulSkip is MatMul with the historical zero-skip branch, kept as the
// benchmark's counterfactual (it is also the branch MatMulATInto still
// carries for its genuinely sparse inputs).
func matMulSkip(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return dst
}

func benchVecs(sparse bool) (x []float64, w, wt, dst *Matrix) {
	const n, m = 96, 128
	rng := rand.New(rand.NewSource(5))
	x = make([]float64, n)
	for i := range x {
		if sparse && i%8 != 0 {
			continue // one-hot-ish: 7/8 of the row stays exactly zero
		}
		x[i] = rng.NormFloat64()
	}
	w = New(n, m)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	return x, w, Transpose(w), New(1, m)
}

// BenchmarkMatMulZeroSkip compares the skip and no-skip row-major kernels
// on dense and sparse input rows.
func BenchmarkMatMulZeroSkip(b *testing.B) {
	for _, mode := range []struct {
		name   string
		sparse bool
	}{{"dense", false}, {"sparse", true}} {
		x, w, _, _ := benchVecs(mode.sparse)
		xm := FromSlice(1, len(x), x)
		b.Run(mode.name+"/skip", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matMulSkip(xm, w)
			}
		})
		b.Run(mode.name+"/noskip", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMul(xm, w)
			}
		})
	}
}

// BenchmarkVecMatTTo measures the fused inference GEMV at the same shape.
func BenchmarkVecMatTTo(b *testing.B) {
	x, _, wt, dst := benchVecs(false)
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			VecMatTTo(dst.Data, x, wt)
		}
	})
}
