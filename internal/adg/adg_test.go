package adg

import (
	"math"
	"math/rand"
	"testing"
)

// randDist draws a random probability vector; sparse=true concentrates mass
// on a few dimensions like I3D action features.
func randDist(rng *rand.Rand, n int, sparse bool) []float64 {
	f := make([]float64, n)
	if sparse {
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			f[rng.Intn(n)] += 1 + rng.Float64()
		}
		for i := range f {
			f[i] += 0.01 * rng.Float64()
		}
	} else {
		for i := range f {
			f[i] = rng.Float64()
		}
	}
	var sum float64
	for _, v := range f {
		sum += v
	}
	for i := range f {
		f[i] /= sum
	}
	return f
}

func TestNewPartitionValidation(t *testing.T) {
	if _, err := NewPartition(1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewPartition(30); err == nil {
		t.Fatal("n=30 accepted (lookup would be enormous)")
	}
	p, err := NewPartition(20)
	if err != nil {
		t.Fatal(err)
	}
	if p.size != 1<<19 {
		t.Fatalf("hash range %d, want %d", p.size, 1<<19)
	}
}

// TestGroupOfIndexMatchesLog2 pins the bit-length group computation to the
// float-log formula it replaced, exhaustively for small n and around every
// dyadic boundary (the only places the two could conceivably disagree) for
// every admissible n.
func TestGroupOfIndexMatchesLog2(t *testing.T) {
	ref := func(i, n int) int {
		if i == 0 {
			return n - 1
		}
		return n - 2 - int(math.Floor(math.Log2(float64(i))))
	}
	for n := 2; n <= 12; n++ {
		for i := 0; i < 1<<(n-1); i++ {
			if got, want := groupOfIndex(i, n), ref(i, n); got != want {
				t.Fatalf("n=%d i=%d: bits %d, log2 %d", n, i, got, want)
			}
		}
	}
	for n := 13; n <= 26; n++ {
		for k := 0; k < n-1; k++ {
			for _, i := range []int{1<<k - 1, 1 << k, 1<<k + 1} {
				if i < 1 || i >= 1<<(n-1) {
					continue
				}
				if got, want := groupOfIndex(i, n), ref(i, n); got != want {
					t.Fatalf("n=%d i=%d: bits %d, log2 %d", n, i, got, want)
				}
			}
		}
	}
}

func TestGroupBoundaries(t *testing.T) {
	p, _ := NewPartition(5)
	// Groups: 0=[1/2,1) 1=[1/4,1/2) 2=[1/8,1/4) 3=[1/16,1/8) 4=[0,1/16).
	cases := []struct {
		v float64
		g int
	}{
		{0.75, 0}, {0.5, 0}, {0.49, 1}, {0.25, 1}, {0.2, 2}, {0.125, 2},
		{0.07, 3}, {0.0625, 3}, {0.06, 4}, {0.0, 4}, {1.0, 0}, {-0.5, 4}, {2.0, 0},
	}
	for _, c := range cases {
		if got := p.GroupOf(c.v); got != c.g {
			t.Fatalf("GroupOf(%v) = %d, want %d", c.v, got, c.g)
		}
	}
}

func TestGroupOfMatchesAnalytic(t *testing.T) {
	// The lookup array must agree with direct computation from the value.
	p, _ := NewPartition(12)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		v := rng.Float64()
		got := p.GroupOf(v)
		// Direct: group j such that v ∈ [2^{-(j+1)}, 2^{-j}), bottom group
		// for v < 2^{-(N-1)}.
		want := p.N - 1
		for j := 0; j < p.N-1; j++ {
			if v >= math.Pow(2, -float64(j+1)) {
				want = j
				break
			}
		}
		if got != want {
			t.Fatalf("GroupOf(%v) = %d, want %d", v, got, want)
		}
	}
}

// TestRepresent: each group holds the (min, max) pair and count of the
// dimensions whose value falls in it.
func TestRepresent(t *testing.T) {
	p, _ := NewPartition(5)
	f := []float64{0.6, 0.55, 0.3, 0.01, 0.02}
	r, err := p.JointRepresent(f, f)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count[0] != 2 || r.FMin[0] != 0.55 || r.FMax[0] != 0.6 {
		t.Fatalf("group 0: %+v", r)
	}
	if r.Count[1] != 1 || r.FMin[1] != 0.3 {
		t.Fatalf("group 1: %+v", r)
	}
	if r.Count[4] != 2 || r.FMin[4] != 0.01 || r.FMax[4] != 0.02 {
		t.Fatalf("group 4: %+v", r)
	}
	total := 0
	for _, c := range r.Count {
		total += c
	}
	if total != len(f) {
		t.Fatalf("counts sum to %d", total)
	}
}

func TestJointRepresentDims(t *testing.T) {
	p, _ := NewPartition(5)
	f := []float64{0.6, 0.01}
	g := []float64{0.1, 0.9}
	r, err := p.JointRepresent(f, g)
	if err != nil {
		t.Fatal(err)
	}
	// Grouping is by f's values: dim 0 → group 0, dim 1 → group 4.
	if r.Count[0] != 1 || r.Dims[0][0] != 0 {
		t.Fatalf("group 0: %+v", r)
	}
	if r.GMin[0] != 0.1 || r.GMax[0] != 0.1 {
		t.Fatalf("G stats of group 0 wrong: %+v", r)
	}
	if r.Count[4] != 1 || r.GMax[4] != 0.9 {
		t.Fatalf("group 4: %+v", r)
	}
	if _, err := p.JointRepresent(f, g[:1]); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

// Theorem 1: REG_I is an upper bound of the exact JS divergence.
func TestREGUpperIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{5, 10, 20} {
		p, _ := NewPartition(n)
		for trial := 0; trial < 300; trial++ {
			dim := 5 + rng.Intn(200)
			sparse := trial%2 == 0
			f := randDist(rng, dim, sparse)
			g := randDist(rng, dim, sparse)
			rep, err := p.JointRepresent(f, g)
			if err != nil {
				t.Fatal(err)
			}
			bound := REGUpper(rep)
			exact := JSExact(f, g)
			if bound < exact-1e-9 {
				t.Fatalf("n=%d trial=%d: REG %.8f < JS %.8f", n, trial, bound, exact)
			}
		}
	}
}

// L1 bounds: ⅛‖Δ‖₁² ≤ JS ≤ ½‖Δ‖₁ for probability vectors.
func TestL1BoundsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		dim := 2 + rng.Intn(100)
		f := randDist(rng, dim, trial%2 == 0)
		g := randDist(rng, dim, trial%3 == 0)
		js := JSExact(f, g)
		lo, up := L1Bounds(f, g)
		if js > up+1e-9 {
			t.Fatalf("JS %.8f above upper bound %.8f", js, up)
		}
		if js < lo-1e-9 {
			t.Fatalf("JS %.8f below lower bound %.8f", js, lo)
		}
	}
}

func TestL1BoundsExtremes(t *testing.T) {
	f := []float64{1, 0}
	g := []float64{0, 1}
	js := JSExact(f, g)
	if math.Abs(js-math.Log(2)) > 1e-9 {
		t.Fatalf("disjoint JS = %v, want ln2", js)
	}
	lo, up := L1Bounds(f, g)
	if up < js {
		t.Fatalf("upper %v < js %v", up, js)
	}
	if lo > js {
		t.Fatalf("lower %v > js %v", lo, js)
	}
	if JSExact(f, f) != 0 {
		t.Fatal("JS(p,p) != 0")
	}
}

// Hybrid bound must stay valid and be at least as tight as the plain bound.
func TestHybridBoundTighterAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p, _ := NewPartition(20)
	for trial := 0; trial < 200; trial++ {
		dim := 50 + rng.Intn(350)
		f := randDist(rng, dim, true)
		g := randDist(rng, dim, true)
		rep, _ := p.JointRepresent(f, g)
		plain := REGUpper(rep)
		exact := JSExact(f, g)
		for _, nsg := range []int{0, 1, 3, 10} {
			hb := REGUpperHybrid(rep, f, g, nsg)
			if hb.Upper < exact-1e-9 {
				t.Fatalf("hybrid nsg=%d: %.8f < exact %.8f", nsg, hb.Upper, exact)
			}
			if hb.Upper > plain+1e-9 {
				t.Fatalf("hybrid nsg=%d looser than plain: %.8f > %.8f", nsg, hb.Upper, plain)
			}
		}
		// nsg = 0 must equal the plain bound.
		hb0 := REGUpperHybrid(rep, f, g, 0)
		if math.Abs(hb0.Upper-plain) > 1e-12 {
			t.Fatalf("nsg=0 differs from plain: %v vs %v", hb0.Upper, plain)
		}
	}
}

func TestFinishExactMatchesJS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, _ := NewPartition(20)
	for trial := 0; trial < 100; trial++ {
		dim := 20 + rng.Intn(380)
		f := randDist(rng, dim, true)
		g := randDist(rng, dim, true)
		rep, _ := p.JointRepresent(f, g)
		for _, nsg := range []int{0, 2, 5, 100} {
			hb := REGUpperHybrid(rep, f, g, nsg)
			got := FinishExact(rep, hb, f, g)
			want := JSExact(f, g)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("FinishExact nsg=%d: %.10f != %.10f", nsg, got, want)
			}
		}
	}
}

func TestSparseGroupsChosen(t *testing.T) {
	p, _ := NewPartition(10)
	// f has one dominant dim (group 0, count 1) and many tiny dims
	// (bottom group). nsg=1 must pick the sparse dominant group.
	f := make([]float64, 50)
	f[7] = 0.9
	rest := 0.1 / 49
	for i := range f {
		if i != 7 {
			f[i] = rest
		}
	}
	g := append([]float64(nil), f...)
	rep, _ := p.JointRepresent(f, g)
	hb := REGUpperHybrid(rep, f, g, 1)
	if !hb.ExactGroups[0] {
		t.Fatalf("nsg=1 did not select the sparsest (dominant) group: %+v", hb.ExactGroups)
	}
}

func TestMFCDecreasesWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var pairs [][2][]float64
	for i := 0; i < 50; i++ {
		pairs = append(pairs, [2][]float64{randDist(rng, 400, true), randDist(rng, 400, true)})
	}
	prev := math.Inf(1)
	for _, n := range []int{15, 16, 17, 18, 19, 20} {
		m, err := MFC(n, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if m < 0 {
			t.Fatalf("negative MFC %v", m)
		}
		if m > prev+1e-12 {
			t.Fatalf("MFC increased at n=%d: %v > %v", n, m, prev)
		}
		prev = m
	}
	// At n=20 the bottom group holds values < 2^-19: contributions should be
	// close to zero (the paper reports 0.004), justifying n = 20.
	m20, _ := MFC(20, pairs)
	if m20 > 0.01 {
		t.Fatalf("MFC at n=20 = %v, want ≲ 0.01", m20)
	}
}

func TestMFCValidation(t *testing.T) {
	if _, err := MFC(20, [][2][]float64{{{1, 0}, {1}}}); err == nil {
		t.Fatal("mismatched pair accepted")
	}
}

func TestJointRepresentIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p, _ := NewPartition(12)
	scratch := NewJointRep(p.N)
	for trial := 0; trial < 50; trial++ {
		f := randDist(rng, 60, true)
		g := randDist(rng, 60, true)
		if err := p.JointRepresentInto(scratch, f, g); err != nil {
			t.Fatal(err)
		}
		fresh, _ := p.JointRepresent(f, g)
		if math.Abs(REGUpper(scratch)-REGUpper(fresh)) > 1e-12 {
			t.Fatal("reused representation differs from fresh one")
		}
	}
	wrong := NewJointRep(5)
	if err := p.JointRepresentInto(wrong, randDist(rng, 10, false), randDist(rng, 10, false)); err == nil {
		t.Fatal("wrong-size representation accepted")
	}
}

func BenchmarkREGUpper400(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p, _ := NewPartition(20)
	f := randDist(rng, 400, true)
	g := randDist(rng, 400, true)
	rep := NewJointRep(p.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.JointRepresentInto(rep, f, g); err != nil {
			b.Fatal(err)
		}
		REGUpper(rep)
	}
}

func BenchmarkJSExact400(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	f := randDist(rng, 400, true)
	g := randDist(rng, 400, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JSExact(f, g)
	}
}
