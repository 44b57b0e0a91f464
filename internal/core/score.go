package core

import (
	"math"
	"sort"

	"aovlis/internal/mat"
)

// divEps guards logarithms against exact-zero probabilities.
const divEps = 1e-12

// JSDivergence returns the Jensen-Shannon divergence between two probability
// vectors (Eq. 14 of the paper computes REI this way, with m = (f + f̂)/2).
// The result lies in [0, ln 2].
func JSDivergence(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("core: JSDivergence length mismatch")
	}
	var js float64
	for i := range p {
		m := (p[i] + q[i]) / 2
		if p[i] > 0 {
			js += 0.5 * p[i] * math.Log((p[i]+divEps)/(m+divEps))
		}
		if q[i] > 0 {
			js += 0.5 * q[i] * math.Log((q[i]+divEps)/(m+divEps))
		}
	}
	if js < 0 {
		js = 0 // numerical floor; JS is non-negative
	}
	return js
}

// REI is the action-feature reconstruction error: the JS divergence between
// the true feature f_t and the reconstruction f̂_t (Eq. 14).
func REI(f, fhat []float64) float64 { return JSDivergence(f, fhat) }

// REA is the audience-feature reconstruction error: ‖â_t − a_t‖₂ (Eq. 15).
func REA(a, ahat []float64) float64 { return mat.VecL2Distance(a, ahat) }

// Score carries the decomposed anomaly score of one segment.
type Score struct {
	// REI is the action reconstruction error (JS divergence).
	REI float64
	// REA is the audience reconstruction error (L2 distance).
	REA float64
	// REIA is the fused score ω·REI + (1−ω)·REA (Eq. 16).
	REIA float64
}

// NewScore fuses the two reconstruction errors with weight omega.
func NewScore(f, fhat, a, ahat []float64, omega float64) Score {
	rei := REI(f, fhat)
	rea := REA(a, ahat)
	return Score{REI: rei, REA: rea, REIA: omega*rei + (1-omega)*rea}
}

// REIAOf recombines a Score under a different ω without re-running the
// model (used by the ω-sweep experiment, Fig. 9a).
func (s Score) REIAOf(omega float64) float64 { return omega*s.REI + (1-omega)*s.REA }

// CalibrateThreshold returns the score value at the given upper quantile of
// a sample of (presumed mostly normal) scores. The paper sweeps τ ∈ (0,1)
// per dataset; operationally a quantile of validation scores is the standard
// way to place τ, and T_n = 0.7·T_a follows §VI-A.
func CalibrateThreshold(scores []float64, quantile float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	q := mat.Clamp(quantile, 0, 1)
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
