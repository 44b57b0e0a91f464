package mat

import (
	"fmt"
	"math"
)

// Kernels that write into a caller-supplied destination: the autodiff
// tape's backward accumulators, and the engines' transpose and softmax.

// TransposeTo computes dst = aᵀ. The training engine re-transposes its
// hidden-column weight blocks every step, so where a vector kernel is active
// the body of the matrix moves in register blocks (8×8 or 4×4 loads, shuffles
// and stores); the ragged edges, and everything elsewhere, move four source
// rows at a time, so every destination row receives four adjacent elements
// per visit instead of one per stride. Pure data movement either way.
func TransposeTo(dst, a *Matrix) {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic(fmt.Sprintf("mat: TransposeTo destination is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, a.Rows))
	}
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
