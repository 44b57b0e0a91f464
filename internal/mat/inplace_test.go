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

// TestInPlaceMatchesAllocating is the arena-correctness property test: every
// in-place variant must produce bitwise-identical results to its allocating
// counterpart, over many random shapes and values — this is what licenses
// swapping them into the Observe/train hot path without perturbing any
// AUROC-affecting output.
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

		check("Add", Add(a, b), func(dst *Matrix) { AddTo(dst, a, b) })
		check("Sub", Sub(a, b), func(dst *Matrix) { SubTo(dst, a, b) })
		check("Mul", Mul(a, b), func(dst *Matrix) { MulTo(dst, a, b) })
		s := rng.NormFloat64()
		check("Scale", Scale(s, a), func(dst *Matrix) { ScaleTo(dst, s, a) })
		check("Apply", Apply(a, math.Tanh), func(dst *Matrix) { ApplyTo(dst, a, math.Tanh) })
		check("Transpose", Transpose(a), func(dst *Matrix) { TransposeTo(dst, a) })

		k := 1 + rng.Intn(6)
		bm := randomMat(rng, c, k)
		check("MatMul", MatMul(a, bm), func(dst *Matrix) { MatMulTo(dst, a, bm) })

		if c >= 2 {
			from := rng.Intn(c - 1)
			to := from + 1 + rng.Intn(c-from-1) + 1
			if to > c {
				to = c
			}
			want := New(a.Rows, to-from)
			for i := 0; i < a.Rows; i++ {
				copy(want.Row(i), a.Row(i)[from:to])
			}
			check("SliceCols", want, func(dst *Matrix) { SliceColsTo(dst, a, from, to) })
		}

		// Fused accumulators vs their two-step compositions.
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
	a, b := New(2, 3), New(2, 3)
	bad("AddTo", func() { AddTo(New(3, 2), a, b) })
	bad("MatMulTo", func() { MatMulTo(New(2, 2), a, New(4, 2)) })
	bad("SliceColsTo", func() { SliceColsTo(New(2, 9), a, 0, 9) })
	bad("SoftmaxInto", func() { SoftmaxInto(make([]float64, 2), make([]float64, 3)) })
}

func TestArenaRecycles(t *testing.T) {
	a := NewArena()
	m1 := a.Get(2, 3)
	m1.Fill(7)
	w1 := a.Wrap(1, 2, []float64{1, 2})
	if a.Live() != 2 {
		t.Fatalf("Live = %d, want 2", a.Live())
	}
	a.Reset()
	if a.Live() != 0 {
		t.Fatalf("Live after Reset = %d, want 0", a.Live())
	}

	// Same element count comes back recycled and zeroed, any shape.
	m2 := a.Get(3, 2)
	if m2 != m1 {
		t.Fatal("Get after Reset did not recycle the matrix")
	}
	if m2.Rows != 3 || m2.Cols != 2 {
		t.Fatalf("recycled matrix shape %dx%d, want 3x2", m2.Rows, m2.Cols)
	}
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatal("recycled matrix not zeroed")
		}
	}

	// Wrap headers recycle too, and never capture the arena's own storage.
	data := []float64{5, 6, 7}
	w2 := a.Wrap(1, 3, data)
	if w2 != w1 {
		t.Fatal("Wrap after Reset did not recycle the header")
	}
	if &w2.Data[0] != &data[0] {
		t.Fatal("Wrap copied the caller's data")
	}

	// A second Reset detaches the wrapped data (no leak through the header).
	a.Reset()
	if w2.Data != nil {
		t.Fatal("Reset kept a reference to wrapped caller data")
	}
}

func TestArenaSteadyStateAllocs(t *testing.T) {
	a := NewArena()
	data := []float64{1, 2, 3}
	warm := func() {
		a.Get(4, 4)
		a.Get(1, 8)
		a.Wrap(1, 3, data)
		a.Reset()
	}
	warm()
	if n := testing.AllocsPerRun(100, warm); n > 0 {
		t.Fatalf("steady-state arena cycle allocates %v times per run, want 0", n)
	}
}
