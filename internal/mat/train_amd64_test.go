//go:build amd64

package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestTrainKernelsEveryVectorWidth calls the AVX2 and the AVX-512 training
// kernels directly — dispatch only ever picks the widest one the CPU has —
// and requires each to match the portable loops bit for bit.
func TestTrainKernelsEveryVectorWidth(t *testing.T) {
	type kernels struct {
		name    string
		level   int
		width   int
		atSteps func(dst, a, b *float64, n, m, ldb, steps int)
		adam    func(p, m, v, grad *float64, n int, c *AdamCoef)
		back    func(dpre, carry, dh, act, tanhC, cPrev *float64, h, n int)
		transp  func(dst, src *float64, rows, cols int)
		vecAdd  func(dst, src *float64, n int)
		sumSq   func(v *float64, n int) float64
	}
	rng := rand.New(rand.NewSource(59))
	for _, k := range []kernels{
		{"avx2", 2, 4, atStepsAVX2, adamAVX2, gatesBackAVX2, transposeAVX2, vecAddAVX2, sumSqAVX2},
		{"avx512", 3, 8, atStepsAVX512, adamAVX512, gatesBackAVX512, transposeAVX512, vecAddAVX512, sumSqAVX512},
	} {
		if simdGEMMLevel < k.level || !simdFMA {
			t.Logf("%s kernels not runnable here (level %d, FMA %v)", k.name, simdGEMMLevel, simdFMA)
			continue
		}
		for _, sh := range trainShapes {
			n, m := sh[0], sh[1]
			done := m &^ (k.width - 1)
			if done == 0 {
				continue
			}
			for _, kind := range []string{"dense", "sparse"} {
				const steps = 9
				a := stepsContext(rng, kind, steps, n)
				b := randMatrixFor(rng, steps, m).Data
				dst0 := randMatrixFor(rng, n, m)
				want := dst0.Clone()
				matMulATStepsPortable(want.Data, a, b, n, m, m, steps, 0)
				got := dst0.Clone()
				k.atSteps(&got.Data[0], &a[0], &b[0], n, m, m, steps)
				matMulATStepsPortable(got.Data, a, b, n, m, m, steps, done)
				sameBits(t, fmt.Sprintf("%s atSteps %dx%d %s", k.name, n, m, kind), got.Data, want.Data)
			}
		}
		for _, h := range []int{k.width, 16, 32, 43} {
			dh, carry, act, tanhC, cPrev := gatesBackOperands(rng, h)
			wantCarry, wantDpre := append([]float64(nil), carry...), make([]float64, 4*h)
			gatesBackPortable(wantDpre, wantCarry, dh, act, tanhC, cPrev, 0)
			dpre, done := make([]float64, 4*h), h&^(k.width-1)
			k.back(&dpre[0], &carry[0], &dh[0], &act[0], &tanhC[0], &cPrev[0], h, done)
			gatesBackPortable(dpre, carry, dh, act, tanhC, cPrev, done)
			sameBits(t, fmt.Sprintf("%s gatesBack h=%d dpre", k.name, h), dpre, wantDpre)
			sameBits(t, fmt.Sprintf("%s gatesBack h=%d carry", k.name, h), carry, wantCarry)
		}
		for _, sh := range [][2]int{{k.width, k.width}, {48, 32}, {16, 48}, {19, 13}, {k.width + 1, 3*k.width - 1}} {
			rows, cols := sh[0], sh[1]
			a := randMatrixFor(rng, rows, cols)
			got := New(cols, rows)
			k.transp(&got.Data[0], &a.Data[0], rows, cols)
			doneRows, doneCols := rows&^(k.width-1), cols&^(k.width-1)
			transposePortable(got.Data, a.Data, rows, cols, 0, doneRows, doneCols)
			transposePortable(got.Data, a.Data, rows, cols, doneRows, rows, 0)
			sameBits(t, fmt.Sprintf("%s transpose %dx%d", k.name, rows, cols), got.Data, Transpose(a).Data)
		}
		for _, n := range []int{k.width, 3 * k.width, 4 * k.width, 9 * k.width, 384 * k.width} {
			v := randMatrixFor(rng, 1, n).Data
			got, want := k.sumSq(&v[0], n), Dot(VectorOf(v), VectorOf(v))
			if slack := sumSquaresSlack(n, want); math.Abs(got-want) > slack {
				t.Fatalf("%s sumSq n=%d: got %v, Dot %v, bound %v", k.name, n, got, want, slack)
			}
		}
		for _, n := range []int{k.width, 6 * k.width} {
			dst, src := randMatrixFor(rng, 1, n).Data, randMatrixFor(rng, 1, n).Data
			want := append([]float64(nil), dst...)
			for i := range want {
				want[i] += src[i]
			}
			k.vecAdd(&dst[0], &src[0], n)
			sameBits(t, fmt.Sprintf("%s vecAdd n=%d", k.name, n), dst, want)
		}
		c := &AdamCoef{GradScale: 0.61, Beta1: 0.9, OneMinusBeta1: 1 - 0.9, Beta2: 0.999, OneMinusBeta2: 1 - 0.999,
			BiasCorr1: 0.271, BiasCorr2: 0.003, LR: 0.001, Eps: 1e-8}
		for _, n := range []int{k.width, 3 * k.width, 304} {
			if n == 3*k.width {
				c.BiasCorr1 = 1 // the no-divide path
			}
			p0, g := randMatrixFor(rng, 1, n).Data, randMatrixFor(rng, 1, n).Data
			m0, v0 := randMatrixFor(rng, 1, n).Data, make([]float64, n)
			for i := range v0 {
				v0[i] = rng.Float64()
			}
			wp, wm, wv := append([]float64(nil), p0...), append([]float64(nil), m0...), append([]float64(nil), v0...)
			adamPortable(wp, wm, wv, g, c, 0)
			k.adam(&p0[0], &m0[0], &v0[0], &g[0], n, c)
			sameBits(t, k.name+" adam p", p0, wp)
			sameBits(t, k.name+" adam m", m0, wm)
			sameBits(t, k.name+" adam v", v0, wv)
		}
	}
}

// marksteinDiv is RECIPDIV of train_amd64.s in Go: the quotient a/b from
// the rounded reciprocal y and two fused operations.
func marksteinDiv(a, b, y float64) float64 {
	q := a * y
	r := math.FMA(-b, q, a)
	return math.FMA(r, y, q)
}

// adversarialNumerators appends numerators whose quotient by b is hard to
// round: a few ulps around b·q (quotient nearly exact) and around
// b·(q + ½ulp) (quotient nearly a rounding midpoint) for random q, across
// a wide exponent range.
func adversarialNumerators(dst []float64, rng *rand.Rand, b float64, n int) []float64 {
	for i := 0; i < n; i++ {
		q := math.Ldexp(1+rng.Float64(), rng.Intn(80)-40)
		if rng.Intn(2) == 0 {
			q = -q
		}
		a := b * q
		if i%2 == 1 {
			half := (math.Nextafter(q, math.Inf(1)) - q) / 2
			a = math.FMA(b, q, b*half)
		}
		lo := math.Nextafter(math.Nextafter(a, math.Inf(-1)), math.Inf(-1))
		for j := 0; j < 5; j++ {
			dst = append(dst, lo)
			lo = math.Nextafter(lo, math.Inf(1))
		}
	}
	return dst
}

// TestAdamReciprocalDivisionExact holds the Adam kernels' reciprocal
// divisions to the `/` of the portable loop, for every divisor the
// optimiser can produce at the default betas — bc₁(t) = 1 − 0.9ᵗ until it
// is 1, bc₂(t) = 1 − 0.999ᵗ until it is 1 — and a set of arbitrary ones
// (all-ones significands, the guard's ends), each against numerators with
// nearly exact and nearly midpoint quotients, the numerator guard's ends
// and both zeros. The m̂ slot is read out exactly (LR = ε = 1, v = 0,
// p = −0 makes the update −0 − m̂); the v̂ slot through the full formula.
func TestAdamReciprocalDivisionExact(t *testing.T) {
	if !simdFMA {
		t.Skip("the vector Adam kernels need AVX2+FMA (or AOVLIS_NOSIMD is set)")
	}
	var divisors []float64
	for step := 1; step < 400; step++ {
		divisors = append(divisors, 1-math.Pow(0.9, float64(step)))
	}
	bc2Steps := 40000
	if testing.Short() {
		bc2Steps = 2000
	}
	for step := 1; step <= bc2Steps; step++ {
		divisors = append(divisors, 1-math.Pow(0.999, float64(step)))
	}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 2000; i++ {
		divisors = append(divisors, math.Ldexp(1+rng.Float64(), rng.Intn(200)-100))
	}
	divisors = append(divisors, 0x1p-100, 0x1p100, math.Nextafter(0x1p100, 0), math.Nextafter(2, 0), math.Nextafter(1, 0), 3, 1+0x1p-52)

	negZero := math.Copysign(0, -1)
	fixed := []float64{0, negZero,
		0x1p-900, -0x1p-900, math.Nextafter(0x1p-900, 0), 0x1p900, -0x1p900, math.Nextafter(0x1p900, math.Inf(1)),
		math.MaxFloat64, -0x1p-1030, math.Inf(-1), math.NaN()}
	var quotients int
	for _, k := range []struct {
		name  string
		level int
		adam  func(p, m, v, grad *float64, n int, c *AdamCoef)
	}{{"avx2", 2, adamAVX2}, {"avx512", 3, adamAVX512}} {
		if simdGEMMLevel < k.level {
			t.Logf("%s kernel not runnable here (level %d)", k.name, simdGEMMLevel)
			continue
		}
		var a, p, m, v, g, wp, wm, wv []float64
		for _, bc := range divisors {
			a = adversarialNumerators(append(a[:0], fixed...), rng, bc, 8)
			for len(a)%8 != 0 {
				a = append(a, rng.NormFloat64())
			}
			n := len(a)
			quotients += n
			if y := 1 / bc; k.level == 2 {
				// The sequence itself where the guard admits the lane, once
				// per divisor (every FMA machine runs the AVX2 pass).
				for _, x := range a {
					if ax := math.Abs(x); ax >= 0x1p-900 && ax <= 0x1p900 && marksteinDiv(x, bc, y) != x/bc {
						t.Fatalf("Markstein quotient %v / %v = %v, want %v", x, bc, marksteinDiv(x, bc, y), x/bc)
					}
				}
			}
			p, m, v, g = append(p[:0], a...), append(m[:0], a...), append(v[:0], a...), append(g[:0], a...)
			for i, x := range a {
				p[i], v[i], g[i] = negZero, 0, math.Copysign(0, x)
			}
			// m̂ = a/bc read out exactly.
			c := &AdamCoef{GradScale: 1, Beta1: 1, Beta2: 1, BiasCorr1: bc, BiasCorr2: 1, LR: 1, Eps: 1}
			wp, wm, wv = append(wp[:0], p...), append(wm[:0], m...), append(wv[:0], v...)
			adamPortable(wp, wm, wv, g, c, 0)
			k.adam(&p[0], &m[0], &v[0], &g[0], n, c)
			for i, x := range a {
				if want := negZero - x/bc; math.Float64bits(wp[i]) != math.Float64bits(want) {
					t.Fatalf("portable loop: −0 − %v/%v = %v, want %v", x, bc, wp[i], want)
				}
				if math.Float64bits(p[i]) != math.Float64bits(wp[i]) {
					t.Fatalf("%s m̂: %v (%016X) / %v (%016X): update %v (%016X), want %v (%016X)", k.name,
						x, math.Float64bits(x), bc, math.Float64bits(bc), p[i], math.Float64bits(p[i]), wp[i], math.Float64bits(wp[i]))
				}
			}
			// v̂ = |a|/bc through √ and the final division.
			for i, x := range a {
				p[i], m[i], v[i] = negZero, 1, math.Abs(x)
			}
			c = &AdamCoef{GradScale: 1, Beta1: 1, Beta2: 1, BiasCorr1: 1, BiasCorr2: bc, LR: 1, Eps: 0}
			wp, wm, wv = append(wp[:0], p...), append(wm[:0], m...), append(wv[:0], v...)
			adamPortable(wp, wm, wv, g, c, 0)
			k.adam(&p[0], &m[0], &v[0], &g[0], n, c)
			for i := range a {
				if math.Float64bits(p[i]) != math.Float64bits(wp[i]) {
					t.Fatalf("%s v̂: %v / %v: update %v (%016X), want %v (%016X)", k.name,
						v[i], bc, p[i], math.Float64bits(p[i]), wp[i], math.Float64bits(wp[i]))
				}
			}
		}
	}
	t.Logf("%d quotients per slot over %d divisors", quotients, len(divisors))

	// The guard is load-bearing: outside it the sequence is wrong and `/`
	// is right, so the lanes the test above passed on can only have
	// divided. −0 loses its sign, and a quotient that overflows to +Inf
	// comes out of the sequence as Inf − Inf.
	bc := 0.271
	if got := marksteinDiv(negZero, bc, 1/bc); math.Signbit(got) || !math.Signbit(negZero/bc) {
		t.Fatalf("expected the sequence to lose −0's sign: got %v", got)
	}
	if got := marksteinDiv(math.MaxFloat64, bc, 1/bc); !math.IsNaN(got) || !math.IsInf(math.MaxFloat64/bc, 1) {
		t.Fatalf("expected the sequence to turn an overflowing quotient into NaN: got %v", got)
	}
}

// sqrtHardOperands appends the square-root operands the certificate must
// get right: random ones over the whole finite positive range (subnormals
// included), near-midpoint ones — x = RN(m²) and its neighbours for the
// midpoint m of two adjacent doubles, where √x rounds by a hair — and the
// binade edges 4ᵏ and 2·4ᵏ with their neighbours, where the gap below the
// root halves.
func sqrtHardOperands(dst []float64, rng *rand.Rand, n int) []float64 {
	for i := 0; i < n; i++ {
		dst = append(dst, math.Ldexp(1+rng.Float64(), rng.Intn(2090)-1070))
		d := math.Ldexp(1+rng.Float64(), rng.Intn(1000)-500)
		u := math.Nextafter(d, math.Inf(1)) - d
		x := math.FMA(d, d, d*u) // (d + u/2)² = d² + d·u + u²/4
		x = math.Nextafter(math.Nextafter(x, 0), 0)
		for j := 0; j < 5; j++ {
			dst = append(dst, x)
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	for k := -537; k <= 511; k += 1 + rng.Intn(8) {
		for _, e := range []float64{math.Ldexp(1, 2*k), math.Ldexp(1, 2*k+1)} {
			dst = append(dst, math.Nextafter(e, 0), e, math.Nextafter(e, math.Inf(1)))
		}
	}
	return dst
}

// TestSqrtCertificateExact holds the certified square root of the Adam
// kernel (CERTSQRT, run alone by sqrtAVX512) to math.Sqrt, bit for bit, on
// sqrtHardOperands and on the inputs it must refuse — ±0, negatives,
// ±Inf, NaN — and then the kernel itself, whose every other vector takes
// the certificate, on the same operands through the v̂ slot. It logs how
// many vectors the certificate left to VSQRTPD.
func TestSqrtCertificateExact(t *testing.T) {
	if simdGEMMLevel < 3 || !simdFMA {
		t.Skip("the certified root runs in the AVX-512 Adam kernel only")
	}
	n := 200000
	if testing.Short() {
		n = 5000
	}
	rng := rand.New(rand.NewSource(103))
	x := sqrtHardOperands(nil, rng, n)
	x = append(x, 0, math.Copysign(0, -1), -1, -0x1p-1074, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, 0x1p-1074)
	rng.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
	for len(x)%8 != 0 {
		x = append(x, rng.Float64())
	}
	got := make([]float64, len(x))
	refused := sqrtAVX512(&got[0], &x[0], len(x))
	for i, v := range x {
		if want := math.Sqrt(v); math.Float64bits(got[i]) != math.Float64bits(want) && !(math.IsNaN(want) && math.IsNaN(got[i])) {
			t.Fatalf("√%v (%016X) = %v (%016X), want %v (%016X)", v, math.Float64bits(v), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
	t.Logf("%d operands, %d of %d vectors refused by the certificate", len(x), refused, len(x)/8)

	// The same operands as v̂ in the kernel: p = −0 − 1/√v̂ (LR = m̂ = 1, ε = 0).
	negZero := math.Copysign(0, -1)
	p, m, v, g := make([]float64, len(x)), make([]float64, len(x)), make([]float64, len(x)), make([]float64, len(x))
	for i, xv := range x {
		p[i], m[i], v[i] = negZero, 1, xv
	}
	wp, wm, wv := append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)
	c := &AdamCoef{GradScale: 1, Beta1: 1, Beta2: 1, BiasCorr1: 1, BiasCorr2: 1, LR: 1, Eps: 0}
	adamPortable(wp, wm, wv, g, c, 0)
	adamAVX512(&p[0], &m[0], &v[0], &g[0], len(x), c)
	for i := range x {
		if math.Float64bits(p[i]) != math.Float64bits(wp[i]) && !(math.IsNaN(p[i]) && math.IsNaN(wp[i])) {
			t.Fatalf("kernel: v̂ = %v: update %v (%016X), want %v (%016X)", x[i], p[i], math.Float64bits(p[i]), wp[i], math.Float64bits(wp[i]))
		}
	}
}
