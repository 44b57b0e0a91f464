// Package mat provides a small dense matrix/vector kernel used by the
// autodiff engine, the neural-network substrate and the feature pipeline.
//
// Matrices are row-major, backed by a flat []float64. The package is
// deliberately minimal: it implements exactly the operations the AOVLIS
// reproduction needs, with explicit dimension checks that panic on
// programmer error (mismatched shapes are bugs, not runtime conditions).
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed Rows x Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a Rows x Cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// VectorOf wraps data as a 1 x len(data) row vector without copying.
func VectorOf(data []float64) *Matrix { return FromSlice(1, len(data), data) }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns row i as a slice aliasing m's backing array.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether a and b have identical dimensions.
func SameShape(a, b *Matrix) bool { return a.Rows == b.Rows && a.Cols == b.Cols }

func mustSameShape(op string, a, b *Matrix) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Add returns a + b elementwise.
func Add(a, b *Matrix) *Matrix {
	mustSameShape("Add", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// AddInto computes dst += src elementwise.
func AddInto(dst, src *Matrix) {
	mustSameShape("AddInto", dst, src)
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// Sub returns a - b elementwise.
func Sub(a, b *Matrix) *Matrix {
	mustSameShape("Sub", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

// Mul returns the Hadamard (elementwise) product a ⊙ b.
func Mul(a, b *Matrix) *Matrix {
	mustSameShape("Mul", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
	return out
}

// Scale returns s * a.
func Scale(s float64, a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = s * v
	}
	return out
}

// MatMul returns the matrix product a · b. The kernel is dense: forward
// inputs (gate contexts, hidden states) are dense on all but the first
// LSTM step, and BenchmarkMatMulZeroSkip shows a zero-skip branch costs
// more there than it saves (~6% on dense rows); skipping a zero input is
// numerically inert anyway for finite operands, so dropping the branch
// changed no bits. MatMulATInto keeps its skip — see the note there.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMul inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				// The conversion forces the product to round before the
				// add on every platform (no FMA contraction), keeping
				// this kernel bit-identical to the fused FwdGEMMBiasInto even
				// where the compiler would otherwise fuse.
				orow[j] += float64(av * bv)
			}
		}
	}
	return out
}

// MatMulATInto computes dst += aᵀ · b, used by autodiff backward passes.
// Unlike the forward kernels, this one KEEPS the zero-skip branch: a is a
// forward input (the gate context), which one-hot action workloads make
// genuinely sparse, and the accumulating destination means dropping the
// branch would not be provably bit-preserving (dst may legitimately hold
// −0 gradients, and adding a +0 term would flip them to +0).
func MatMulATInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulATInto shape mismatch dst %dx%d, a %dx%d, b %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		brow := b.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[k*dst.Cols : (k+1)*dst.Cols]
			for j, bv := range brow {
				// float64() forbids FMA contraction, so arm64 rounds like
				// amd64 and like MatMulATStepsInto.
				drow[j] += float64(av * bv)
			}
		}
	}
}

// MatMulBTInto computes dst += a · bᵀ, used by autodiff backward passes.
func MatMulBTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMulBTInto shape mismatch dst %dx%d, a %dx%d, b %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var s float64
			for k, av := range arow {
				s += float64(av * brow[k]) // no FMA contraction: matches the GEMV kernels
			}
			drow[j] += s
		}
	}
}

// Transpose returns aᵀ.
func Transpose(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
		}
	}
	return out
}

// Apply returns f applied elementwise to a.
func Apply(a *Matrix, f func(float64) float64) *Matrix {
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = f(v)
	}
	return out
}

// Sum returns the sum of all elements of a.
func Sum(a *Matrix) float64 {
	var s float64
	for _, v := range a.Data {
		s += v
	}
	return s
}

// Dot returns the inner product of two equally-shaped matrices viewed as
// flat vectors.
func Dot(a, b *Matrix) float64 {
	mustSameShape("Dot", a, b)
	var s float64
	for i, v := range a.Data {
		s += float64(v * b.Data[i]) // no FMA contraction: nn.Adam's exact clip norm sums these bits
	}
	return s
}

// Vector helpers over plain []float64 slices. The feature pipeline deals in
// raw slices; these avoid wrapping every call site in a Matrix.

// VecDot returns the inner product of a and b.
func VecDot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: VecDot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// VecNorm2 returns the Euclidean norm of a.
func VecNorm2(a []float64) float64 { return math.Sqrt(VecDot(a, a)) }

// VecL2Distance returns the Euclidean distance between a and b.
func VecL2Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: VecL2Distance length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// VecL1Distance returns the L1 distance between a and b.
func VecL1Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: VecL1Distance length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// VecArgMax returns the index of the maximum element, or -1 for empty input.
func VecArgMax(a []float64) int {
	if len(a) == 0 {
		return -1
	}
	best, idx := a[0], 0
	for i, v := range a {
		if v > best {
			best, idx = v, i
		}
	}
	return idx
}

// VecSum returns the sum of elements of a.
func VecSum(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v
	}
	return s
}

// Normalize scales a in place so its elements sum to 1. Vectors whose sum is
// not positive are left unchanged and reported via the return value.
func Normalize(a []float64) bool {
	s := VecSum(a)
	if s <= 0 {
		return false
	}
	for i := range a {
		a[i] /= s
	}
	return true
}

// Softmax returns the softmax of a with the max-subtraction trick for
// numerical stability.
func Softmax(a []float64) []float64 {
	out := make([]float64, len(a))
	if len(a) == 0 {
		return out
	}
	m := a[0]
	for _, v := range a {
		if v > m {
			m = v
		}
	}
	var sum float64
	for i, v := range a {
		e := math.Exp(v - m)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
