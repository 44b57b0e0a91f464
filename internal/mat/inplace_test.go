package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randomMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// identical reports bitwise equality, treating NaN == NaN.
func identical(a, b *Matrix) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestInPlaceMatchesAllocating is the property test of the destination
// kernels: TransposeTo, SoftmaxInto and the fused accumulators must produce
// bitwise-identical results to their allocating or two-step counterparts,
// over many random shapes and values.
func TestInPlaceMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		r := 1 + rng.Intn(5)
		c := 1 + rng.Intn(17)
		a := randomMat(rng, r, c)
		b := randomMat(rng, r, c)

		check := func(name string, want *Matrix, inPlace func(dst *Matrix)) {
			t.Helper()
			dst := randomMat(rng, want.Rows, want.Cols) // dirty destination
			inPlace(dst)
			if !identical(want, dst) {
				t.Fatalf("trial %d: %s in-place differs from allocating version", trial, name)
			}
		}

		check("Transpose", Transpose(a), func(dst *Matrix) { TransposeTo(dst, a) })

		// Fused accumulators vs their two-step compositions.
		s := rng.NormFloat64()
		base := randomMat(rng, r, c)
		want := base.Clone()
		AddInto(want, Scale(s, a))
		got := base.Clone()
		AddScaledInto(got, s, a)
		if !identical(want, got) {
			t.Fatalf("trial %d: AddScaledInto differs from AddInto(Scale)", trial)
		}
		want = base.Clone()
		AddInto(want, Mul(a, b))
		got = base.Clone()
		AddMulInto(got, a, b)
		if !identical(want, got) {
			t.Fatalf("trial %d: AddMulInto differs from AddInto(Mul)", trial)
		}

		av := a.Data
		vout := make([]float64, len(av))

		// Softmax over positive-ish inputs (the simplex domain it serves).
		SoftmaxInto(vout, av)
		for i, v := range Softmax(av) {
			if math.Float64bits(v) != math.Float64bits(vout[i]) {
				t.Fatalf("trial %d: SoftmaxInto differs", trial)
			}
		}
	}
}

func TestInPlaceShapePanics(t *testing.T) {
	bad := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s with mismatched shapes did not panic", name)
			}
		}()
		f()
	}
	a := New(2, 3)
	bad("TransposeTo", func() { TransposeTo(New(2, 3), a) })
	bad("AddMulInto", func() { AddMulInto(New(3, 2), a, a) })
	bad("SoftmaxInto", func() { SoftmaxInto(make([]float64, 2), make([]float64, 3)) })
}
