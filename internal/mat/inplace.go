package mat

import (
	"fmt"
	"math"
)

// In-place variants of the allocating operations. Each XTo writes the full
// result into a caller-supplied destination of the right shape and performs
// exactly the same floating-point operations in the same order as its
// allocating counterpart, so results are bitwise identical (property-tested
// in mat_inplace_test.go). The autodiff tape pairs them with an Arena to
// keep the Observe/train hot path allocation-free.

func mustShape(op string, m *Matrix, rows, cols int) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("mat: %s destination is %dx%d, want %dx%d", op, m.Rows, m.Cols, rows, cols))
	}
}

// AddTo computes dst = a + b elementwise.
func AddTo(dst, a, b *Matrix) {
	mustSameShape("AddTo", a, b)
	mustShape("AddTo", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
}

// SubTo computes dst = a - b elementwise.
func SubTo(dst, a, b *Matrix) {
	mustSameShape("SubTo", a, b)
	mustShape("SubTo", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v - b.Data[i]
	}
}

// MulTo computes the Hadamard product dst = a ⊙ b.
func MulTo(dst, a, b *Matrix) {
	mustSameShape("MulTo", a, b)
	mustShape("MulTo", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v * b.Data[i]
	}
}

// ScaleTo computes dst = s * a.
func ScaleTo(dst *Matrix, s float64, a *Matrix) {
	mustShape("ScaleTo", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = s * v
	}
}

// ApplyTo computes dst = f(a) elementwise.
func ApplyTo(dst, a *Matrix, f func(float64) float64) {
	mustShape("ApplyTo", dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = f(v)
	}
}

// MatMulTo computes dst = a · b, zeroing dst first. The accumulation order
// matches MatMul exactly. Like MatMul, the kernel is dense — the former
// zero-skip branch cost more on dense LSTM inputs than it saved (see
// BenchmarkMatMulZeroSkip) and skipping zeros never changed a bit.
func MatMulTo(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMulTo inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	mustShape("MatMulTo", dst, a.Rows, b.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				// float64() forbids FMA contraction so this kernel and
				// the fused FwdGEMMBiasInto round identically on every
				// platform, not just non-contracting amd64.
				orow[j] += float64(av * bv)
			}
		}
	}
}

// SliceColsTo copies columns [from, to) of a into dst.
func SliceColsTo(dst, a *Matrix, from, to int) {
	if from < 0 || to > a.Cols || from >= to {
		panic(fmt.Sprintf("mat: SliceColsTo[%d:%d] of %d cols", from, to, a.Cols))
	}
	mustShape("SliceColsTo", dst, a.Rows, to-from)
	for i := 0; i < a.Rows; i++ {
		copy(dst.Row(i), a.Row(i)[from:to])
	}
}

// TransposeTo computes dst = aᵀ. The training engine re-transposes its
// hidden-column weight blocks every step, so where a vector kernel is active
// the body of the matrix moves in register blocks (8×8 or 4×4 loads, shuffles
// and stores); the ragged edges, and everything elsewhere, move four source
// rows at a time, so every destination row receives four adjacent elements
// per visit instead of one per stride. Pure data movement either way.
func TransposeTo(dst, a *Matrix) {
	mustShape("TransposeTo", dst, a.Cols, a.Rows)
	doneRows, doneCols := simdTransposeInto(dst.Data, a.Data, a.Rows, a.Cols)
	if doneCols < a.Cols {
		transposePortable(dst.Data, a.Data, a.Rows, a.Cols, 0, doneRows, doneCols)
	}
	if doneRows < a.Rows {
		transposePortable(dst.Data, a.Data, a.Rows, a.Cols, doneRows, a.Rows, 0)
	}
}

// transposePortable moves rows [r0, r1) of the rows×cols matrix src, from
// column c0 on, into dst = srcᵀ.
func transposePortable(dst, src []float64, rows, cols, r0, r1, c0 int) {
	i := r0
	for ; i+4 <= r1; i += 4 {
		s0 := src[i*cols+c0 : (i+1)*cols]
		s1 := src[(i+1)*cols+c0 : (i+2)*cols][:len(s0)]
		s2 := src[(i+2)*cols+c0 : (i+3)*cols][:len(s0)]
		s3 := src[(i+3)*cols+c0 : (i+4)*cols][:len(s0)]
		off := c0*rows + i
		for j := range s0 {
			d := dst[off : off+4 : off+4]
			d[0], d[1], d[2], d[3] = s0[j], s1[j], s2[j], s3[j]
			off += rows
		}
	}
	for ; i < r1; i++ {
		for j := c0; j < cols; j++ {
			dst[j*rows+i] = src[i*cols+j]
		}
	}
}

// AddScaledInto computes dst += s * src elementwise — the fused form of
// AddInto(dst, Scale(s, src)) used by autodiff backward passes.
func AddScaledInto(dst *Matrix, s float64, src *Matrix) {
	mustSameShape("AddScaledInto", dst, src)
	for i, v := range src.Data {
		dst.Data[i] += float64(s * v) // no FMA contraction: the tape's bits are amd64's everywhere
	}
}

// AddMulInto computes dst += a ⊙ b elementwise — the fused form of
// AddInto(dst, Mul(a, b)) used by autodiff backward passes.
func AddMulInto(dst, a, b *Matrix) {
	mustSameShape("AddMulInto", a, b)
	mustSameShape("AddMulInto", dst, a)
	for i, v := range a.Data {
		dst.Data[i] += float64(v * b.Data[i]) // no FMA contraction, as above
	}
}

// SoftmaxInto computes the softmax of a into dst with the same
// max-subtraction trick as Softmax.
func SoftmaxInto(dst, a []float64) {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("mat: SoftmaxInto length mismatch %d vs %d", len(dst), len(a)))
	}
	if len(a) == 0 {
		return
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
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}
