//go:build amd64

package mat

import (
	"math"
	"math/rand"
	"testing"
)

// exactLevels lists the vector widths whose exact kernels this CPU can
// run, addressed by level so that dispatch's choice of the widest one does
// not hide the other from the tests.
func exactLevels(t testing.TB) []int {
	t.Helper()
	if !simdFMA {
		t.Skip("exact kernels need AVX2+FMA (or AOVLIS_NOSIMD is set)")
	}
	if simdExactLevel != simdGEMMLevel {
		t.Fatalf("exact kernels refused at start-up (level %d, GEMM level %d): they no longer match this toolchain's math.Exp/math.Tanh",
			simdExactLevel, simdGEMMLevel)
	}
	if simdGEMMLevel == 3 {
		return []int{2, 3}
	}
	return []int{2}
}

// checkExactBlock runs both kernels of the level over xs (a whole number
// of blocks) and compares every lane with the math call by bit pattern.
func checkExactBlock(t testing.TB, level int, xs, scratch []float64) {
	t.Helper()
	got := scratch[:len(xs)]
	copy(got, xs)
	if n := exactExpNegBlocks(level, got); n != len(xs) {
		t.Fatalf("level %d: exp covered %d of %d", level, n, len(xs))
	}
	for i, x := range xs {
		if w := math.Exp(-x); math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("level %d lane %d: exp(−%v) [%016X] = %v (%016X), math.Exp %v (%016X)",
				level, i%(1<<level), x, math.Float64bits(x), got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
		}
	}
	if n := exactTanhBlocks(level, got, xs); n != len(xs) {
		t.Fatalf("level %d: tanh covered %d of %d", level, n, len(xs))
	}
	for i, x := range xs {
		if w := math.Tanh(x); math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("level %d lane %d: tanh(%v) [%016X] = %v (%016X), math.Tanh %v (%016X)",
				level, i%(1<<level), x, math.Float64bits(x), got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
		}
	}
}

// exactEdges are the operands each scalar routine branches on, pinned into
// the first blocks: zeros, non-finite values, tanh's 0.625 and 0.5·MAXLOG
// branch points, the kernels' guard, exp's overflow and subnormal
// thresholds — each with both signs and both neighbours.
func exactEdges() []float64 {
	const maxLog = 8.8029691931113054295988e+01
	var xs []float64
	for _, x := range []float64{0, 0.625, 0.5 * maxLog, 700, 7.09782712893384e+02, 708.3964185322641, 745.1332191019412,
		1, 0.5, math.Ln2 / 2, 1e-300, math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, math.Inf(1)} {
		for _, v := range []float64{x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1))} {
			xs = append(xs, v, -v)
		}
	}
	xs = append(xs, math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8DEADBEEF0000))
	return xs
}

// TestExactTranscendentalsMatchMath is the contract of exact mode's vector
// kernels: on every operand, at every vector width, the bits of math.Exp
// and math.Tanh. It is also the tripwire on a toolchain upgrade — exact
// mode is DEFINED by the toolchain's math package, and if a Go release
// changes either routine this fails (and detectExactLevel's probe turns
// the kernels off at run time, which exactLevels reports).
func TestExactTranscendentalsMatchMath(t *testing.T) {
	perFamily := 2_000_000 // five random families: 10⁷ operands per function and width
	if testing.Short() {
		perFamily = 100_000
	}
	const chunk = 1 << 12
	families := []struct {
		name string
		draw func(rng *rand.Rand) float64
	}{
		{"N(0,3)", func(rng *rand.Rand) float64 { return rng.NormFloat64() * 3 }},
		{"±50", func(rng *rand.Rand) float64 { return (rng.Float64()*2 - 1) * 50 }},
		{"±750 across the guard", func(rng *rand.Rand) float64 { return (rng.Float64()*2 - 1) * 750 }},
		{"raw bit patterns", func(rng *rand.Rand) float64 { return math.Float64frombits(rng.Uint64()) }},
		{"subnormals", func(rng *rand.Rand) float64 {
			return math.Float64frombits(rng.Uint64() & (1<<63 | 1<<52 - 1))
		}},
	}
	for _, level := range exactLevels(t) {
		rng := rand.New(rand.NewSource(int64(61 + level)))
		xs, scratch := make([]float64, chunk), make([]float64, chunk)

		// The edge operands, then every one of them alone in each lane of
		// an otherwise in-guard block (a guard miss must not disturb its
		// neighbours, nor a neighbour's branch its own).
		edges := exactEdges()
		for len(edges)%8 != 0 {
			edges = append(edges, 0.3)
		}
		checkExactBlock(t, level, edges, scratch)
		for _, e := range edges {
			for lane := 0; lane < 8; lane++ {
				for j := range xs[:8] {
					xs[j] = float64(j)*0.41 - 1.3
				}
				xs[lane] = e
				checkExactBlock(t, level, xs[:8], scratch)
			}
		}

		// The rounding breakpoints of k = round(x·log₂e), k + ½, ±2 ulp:
		// for exp directly (−v = x), and for tanh's exp(2z) at z = x/2.
		var bp []float64
		for k := -1080; k <= 1080; k++ {
			x := (float64(k) + 0.5) / math.Log2E
			v := math.Nextafter(math.Nextafter(x, math.Inf(-1)), math.Inf(-1))
			for i := 0; i < 5; i++ {
				bp = append(bp, -v, v/2)
				v = math.Nextafter(v, math.Inf(1))
			}
		}
		for len(bp)%8 != 0 {
			bp = append(bp, 0.3)
		}
		checkExactBlock(t, level, bp, make([]float64, len(bp)))

		for _, f := range families {
			for done := 0; done < perFamily; done += chunk {
				for i := range xs {
					xs[i] = f.draw(rng)
				}
				checkExactBlock(t, level, xs, scratch)
			}
		}
	}
}

// TestExactKernelsRunInsideGuard pins that the kernels themselves, not the
// scalar finish, produce the in-guard results: on operands within ±700
// they report every element done, and they stop exactly at the first block
// holding a lane beyond it.
func TestExactKernelsRunInsideGuard(t *testing.T) {
	for _, level := range exactLevels(t) {
		width := 1 << level
		expNeg, tanh := expNegAVX2, tanhAVX2
		if level == 3 {
			expNeg, tanh = expNegAVX512, tanhAVX512
		}
		rng := rand.New(rand.NewSource(67))
		xs := make([]float64, 8*width)
		for i := range xs {
			xs[i] = (rng.Float64()*2 - 1) * 700
		}
		xs[0], xs[1] = 700, -700
		dst := make([]float64, len(xs))
		for _, bad := range []float64{math.Nextafter(700, 701), math.NaN(), math.Inf(-1)} {
			for _, at := range []int{-1, 0, 3*width + 1, len(xs) - 1} {
				in := append([]float64(nil), xs...)
				want := len(xs)
				if at >= 0 {
					in[at] = bad
					want = at &^ (width - 1)
				}
				if got := tanh(&dst[0], &in[0], len(in)); got != want {
					t.Fatalf("level %d tanh: %v at %d: kernel finished %d elements, want %d", level, bad, at, got, want)
				}
				if got := expNeg(&in[0], len(in)); got != want {
					t.Fatalf("level %d expNeg: %v at %d: kernel finished %d elements, want %d", level, bad, at, got, want)
				}
			}
		}
	}
}

// FuzzExactTranscendental places one arbitrary bit pattern in one lane of
// an otherwise ordinary block and requires every lane of both kernels, at
// every width, to carry math's bits.
func FuzzExactTranscendental(f *testing.F) {
	for i, x := range exactEdges() {
		f.Add(math.Float64bits(x), uint8(i))
	}
	levels := exactLevels(f)
	f.Fuzz(func(t *testing.T, bits uint64, lane uint8) {
		var xs, scratch [8]float64
		for j := range xs {
			xs[j] = float64(j)*0.41 - 1.3
		}
		xs[lane%8] = math.Float64frombits(bits)
		for _, level := range levels {
			checkExactBlock(t, level, xs[:], scratch[:])
		}
	})
}
