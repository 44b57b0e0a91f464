package ados

import (
	"math"
	"math/rand"
	"testing"

	"aovlis/internal/core"
)

func randDist(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	k := 1 + rng.Intn(3)
	for j := 0; j < k; j++ {
		f[rng.Intn(n)] += 1 + rng.Float64()
	}
	for i := range f {
		f[i] += 0.01 * rng.Float64()
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

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// perturb returns a noisy copy of f, still a distribution; scale controls
// how far it strays (small = normal reconstruction, large = anomaly).
func perturb(rng *rand.Rand, f []float64, scale float64) []float64 {
	g := make([]float64, len(f))
	var sum float64
	for i := range f {
		g[i] = f[i] * math.Exp(scale*rng.NormFloat64())
		sum += g[i]
	}
	for i := range g {
		g[i] /= sum
	}
	return g
}

func allStrategies() []Strategy {
	return []Strategy{
		StrategyNoBound, StrategyJSmaxOnly, StrategyJSminOnly, StrategyREGOnly,
		StrategyL1, StrategyAllBounds, StrategyADOS,
	}
}

// The defining safety property of the optimisation: every strategy must
// produce exactly the decision the exact REIA computation would produce —
// bounds may only skip work, never change answers.
func TestAllStrategiesAgreeWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const dim, adim = 120, 20
	const tau, omega = 0.15, 0.8
	filters := make(map[Strategy]*Filter)
	for _, s := range allStrategies() {
		cfg := DefaultConfig(tau, omega)
		cfg.Strategy = s
		fl, err := NewFilter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		filters[s] = fl
	}
	for trial := 0; trial < 250; trial++ {
		fTrue := randDist(rng, dim)
		scale := 0.05 + 1.5*rng.Float64()
		fHat := perturb(rng, fTrue, scale)
		aTrue := randVec(rng, adim)
		aHat := make([]float64, adim)
		for i := range aHat {
			aHat[i] = aTrue[i] + 0.02*rng.NormFloat64()
		}
		wantScore := core.NewScore(fTrue, fHat, aTrue, aHat, omega).REIA
		if math.Abs(wantScore-tau) < 1e-9 {
			continue // skip knife-edge cases
		}
		want := wantScore > tau
		for _, s := range allStrategies() {
			fl := filters[s]
			res, err := fl.Decide(fTrue, fHat, aTrue, aHat)
			if err != nil {
				t.Fatal(err)
			}
			if res.Anomaly != want {
				t.Fatalf("trial %d strategy %v: decision %v, exact says %v (score %.4f τ %.4f path %v)",
					trial, s, res.Anomaly, want, wantScore, tau, res.Path)
			}
		}
	}
}

func TestFilterActuallyFilters(t *testing.T) {
	// On a workload of mostly-normal segments the bound layers must decide
	// a substantial fraction without exact REI.
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig(0.2, 0.8)
	fl, err := NewFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		fTrue := randDist(rng, 200)
		scale := 0.05
		if i%10 == 0 {
			scale = 2.0 // occasional anomaly
		}
		fHat := perturb(rng, fTrue, scale)
		aTrue := randVec(rng, 20)
		aHat := append([]float64(nil), aTrue...)
		if _, err := fl.Decide(fTrue, fHat, aTrue, aHat); err != nil {
			t.Fatal(err)
		}
	}
	st := fl.Stats()
	if st.Total != n {
		t.Fatalf("Total = %d", st.Total)
	}
	if st.FilteredTotal() == 0 {
		t.Fatal("no segment was filtered by any bound")
	}
	if fl.FilteringPower() < 0.3 {
		t.Fatalf("filtering power %.3f too low on an easy workload", fl.FilteringPower())
	}
	if st.ExactREI+st.FilteredTotal() != st.Total {
		t.Fatalf("stats do not partition the workload: %+v", st)
	}
}

func TestADOSSkipsUselessL1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultConfig(0.15, 0.9)
	cfg.Strategy = StrategyADOS
	fl, _ := NewFilter(cfg)
	// Mid-range perturbations: dominant dims differ moderately → trigger
	// should skip the L1 pass at least sometimes.
	for i := 0; i < 300; i++ {
		fTrue := randDist(rng, 150)
		fHat := perturb(rng, fTrue, 0.55)
		aTrue := randVec(rng, 10)
		if _, err := fl.Decide(fTrue, fHat, aTrue, aTrue); err != nil {
			t.Fatal(err)
		}
	}
	st := fl.Stats()
	if st.L1Skipped == 0 {
		t.Fatalf("ADOS never skipped the L1 pass: %+v", st)
	}
	if st.L1Skipped+st.L1Computed != st.Total {
		t.Fatalf("trigger counters inconsistent: %+v", st)
	}
}

func TestOmegaZeroPureAudience(t *testing.T) {
	cfg := DefaultConfig(0.5, 0)
	fl, _ := NewFilter(cfg)
	f := []float64{0.5, 0.5}
	aTrue := []float64{0, 0}
	aFar := []float64{1, 1} // REA = √2 > 0.5
	res, err := fl.Decide(f, f, aTrue, aFar)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Anomaly || res.Path != PathREAOnly || !res.Exact {
		t.Fatalf("pure audience decision wrong: %+v", res)
	}
	res2, _ := fl.Decide(f, f, aTrue, aTrue)
	if res2.Anomaly {
		t.Fatalf("identical audience features flagged: %+v", res2)
	}
}

func TestREAAloneExceedsTau(t *testing.T) {
	cfg := DefaultConfig(0.1, 0.5)
	fl, _ := NewFilter(cfg)
	f := []float64{0.5, 0.5}
	// REA = 10 ⇒ (1−ω)·REA = 5 > τ ⇒ anomaly without touching REI.
	res, err := fl.Decide(f, f, []float64{0, 0}, []float64{6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Anomaly || res.Path != PathREAOnly {
		t.Fatalf("REA-dominated case wrong: %+v", res)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewFilter(Config{Omega: 2}); err == nil {
		t.Fatal("Omega=2 accepted")
	}
	if _, err := NewFilter(Config{Omega: 0.5, TnRatio: 2}); err == nil {
		t.Fatal("TnRatio=2 accepted")
	}
	fl, err := NewFilter(DefaultConfig(0.1, 0.8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Decide([]float64{1}, []float64{1, 0}, nil, nil); err == nil {
		t.Fatal("mismatched action dims accepted")
	}
	if _, err := fl.Decide([]float64{1}, []float64{1}, []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched audience dims accepted")
	}
}

func TestStrategyAndPathStrings(t *testing.T) {
	if StrategyADOS.String() != "ADOS" || StrategyAllBounds.String() != "JSmin+JSmax+REG_I" {
		t.Fatal("strategy names wrong")
	}
	if PathExact.String() != "exact" || PathREG.String() != "REG_I" {
		t.Fatal("path names wrong")
	}
}

// Efficiency shape: on a mostly-normal workload ADOS must issue fewer
// exact-REI computations than the no-bound strategy (which always does).
func TestADOSReducesExactComputations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func(s Strategy) *Filter {
		cfg := DefaultConfig(0.2, 0.8)
		cfg.Strategy = s
		fl, _ := NewFilter(cfg)
		return fl
	}
	adosF, noneF := mk(StrategyADOS), mk(StrategyNoBound)
	for i := 0; i < 300; i++ {
		fTrue := randDist(rng, 200)
		fHat := perturb(rng, fTrue, 0.08)
		a := randVec(rng, 10)
		if _, err := adosF.Decide(fTrue, fHat, a, a); err != nil {
			t.Fatal(err)
		}
		if _, err := noneF.Decide(fTrue, fHat, a, a); err != nil {
			t.Fatal(err)
		}
	}
	if adosF.Stats().ExactREI >= noneF.Stats().ExactREI {
		t.Fatalf("ADOS exact count %d not below no-bound %d",
			adosF.Stats().ExactREI, noneF.Stats().ExactREI)
	}
}

func BenchmarkDecideADOS(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	fl, _ := NewFilter(DefaultConfig(0.2, 0.8))
	fTrue := randDist(rng, 400)
	fHat := perturb(rng, fTrue, 0.05)
	a := randVec(rng, 27)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fl.Decide(fTrue, fHat, a, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecideNoBound(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultConfig(0.2, 0.8)
	cfg.Strategy = StrategyNoBound
	fl, _ := NewFilter(cfg)
	fTrue := randDist(rng, 400)
	fHat := perturb(rng, fTrue, 0.05)
	a := randVec(rng, 27)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fl.Decide(fTrue, fHat, a, a); err != nil {
			b.Fatal(err)
		}
	}
}
