package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.Row(1)[2]; got != 7.5 {
		t.Fatalf("Row(1)[2] = %v, want 7.5", got)
	}
}

func TestFromSliceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestCloneIsDeep(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, 2, 3})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestAddSubMul(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	if got := Add(a, b).Data; got[0] != 6 || got[3] != 12 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).Data; got[0] != 4 || got[3] != 4 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b).Data; got[0] != 5 || got[3] != 32 {
		t.Fatalf("Mul = %v", got)
	}
	if got := Scale(2, a).Data; got[0] != 2 || got[3] != 8 {
		t.Fatalf("Scale = %v", got)
	}
}

func TestAddInto(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(1, 2, []float64{10, 20})
	AddInto(a, b)
	if a.Data[0] != 11 || a.Data[1] != 22 {
		t.Fatalf("AddInto = %v", a.Data)
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", got.Data, want)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with bad shapes did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulATInto(t *testing.T) {
	// dst += aᵀ·b must equal Transpose(a)·b.
	rng := rand.New(rand.NewSource(1))
	a, b := randMat(rng, 4, 3), randMat(rng, 4, 5)
	dst := New(3, 5)
	MatMulATInto(dst, a, b)
	want := MatMul(Transpose(a), b)
	for i := range want.Data {
		if !almostEqual(dst.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("MatMulATInto[%d] = %v, want %v", i, dst.Data[i], want.Data[i])
		}
	}
}

func TestMatMulBTInto(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(rng, 4, 3), randMat(rng, 5, 3)
	dst := New(4, 5)
	MatMulBTInto(dst, a, b)
	want := MatMul(a, Transpose(b))
	for i := range want.Data {
		if !almostEqual(dst.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("MatMulBTInto[%d] = %v, want %v", i, dst.Data[i], want.Data[i])
		}
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := Transpose(a)
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("Transpose dims %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose values wrong: %v", at.Data)
	}
}

func TestReductionsAndNorms(t *testing.T) {
	a := FromSlice(1, 4, []float64{1, -2, 3, -4})
	if Sum(a) != -2 {
		t.Fatalf("Sum = %v", Sum(a))
	}
	if !almostEqual(VecNorm2(a.Data), math.Sqrt(30), 1e-12) {
		t.Fatalf("VecNorm2 = %v", VecNorm2(a.Data))
	}
}

func TestVecHelpers(t *testing.T) {
	a, b := []float64{1, 2, 3}, []float64{4, 5, 6}
	if got := VecDot(a, b); got != 32 {
		t.Fatalf("VecDot = %v", got)
	}
	if got := VecL2Distance(a, b); !almostEqual(got, math.Sqrt(27), 1e-12) {
		t.Fatalf("VecL2Distance = %v", got)
	}
	if got := VecL1Distance(a, b); got != 9 {
		t.Fatalf("VecL1Distance = %v", got)
	}
	if got := VecArgMax(a); got != 2 {
		t.Fatalf("VecArgMax = %v", got)
	}
	if got := VecArgMax(nil); got != -1 {
		t.Fatalf("VecArgMax(nil) = %v", got)
	}
	if got := VecSum(a); got != 6 {
		t.Fatalf("VecSum = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	a := []float64{2, 2, 4}
	if !Normalize(a) {
		t.Fatal("Normalize returned false on positive vector")
	}
	if !almostEqual(VecSum(a), 1, 1e-12) || !almostEqual(a[2], 0.5, 1e-12) {
		t.Fatalf("Normalize = %v", a)
	}
	z := []float64{0, 0}
	if Normalize(z) {
		t.Fatal("Normalize of zero vector should return false")
	}
}

func TestSoftmax(t *testing.T) {
	s := Softmax([]float64{1000, 1000, 1000})
	for _, v := range s {
		if !almostEqual(v, 1.0/3, 1e-12) {
			t.Fatalf("Softmax stability: %v", s)
		}
	}
	if got := Softmax(nil); len(got) != 0 {
		t.Fatalf("Softmax(nil) = %v", got)
	}
	s2 := Softmax([]float64{0, math.Log(3)})
	if !almostEqual(s2[1], 0.75, 1e-12) {
		t.Fatalf("Softmax = %v", s2)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp wrong")
	}
}

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// Property: softmax output is a probability distribution.
func TestSoftmaxIsDistribution(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		in := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			in[i] = math.Mod(v, 50)
		}
		s := Softmax(in)
		var sum float64
		for _, v := range s {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cosine similarity lies in [-1, 1].
func TestCosineRange(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		x, y := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				return true
			}
			// Bound magnitudes so norms cannot overflow to +Inf.
			x[i], y[i] = math.Mod(a[i], 1e6), math.Mod(b[i], 1e6)
		}
		c := VecCosine(x, y)
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestMatMulTransposeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a, b := randMat(rng, r, k), randMat(rng, k, c)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		for i := range lhs.Data {
			if !almostEqual(lhs.Data[i], rhs.Data[i], 1e-10) {
				t.Fatalf("(AB)ᵀ != BᵀAᵀ at trial %d", trial)
			}
		}
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x, y := randMat(rng, 64, 64), randMat(rng, 64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}
