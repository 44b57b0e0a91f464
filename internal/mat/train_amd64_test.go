//go:build amd64

package mat

import (
	"fmt"
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
	}
	rng := rand.New(rand.NewSource(59))
	for _, k := range []kernels{
		{"avx2", 2, 4, atStepsAVX2, adamAVX2},
		{"avx512", 3, 8, atStepsAVX512, adamAVX512},
	} {
		if simdGEMMLevel < k.level {
			t.Logf("%s kernels not runnable here (level %d)", k.name, simdGEMMLevel)
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
