// Package adg implements the paper's Adaptive Dimension Group
// representation (§V-A) and the bound measures used to filter anomaly
// candidates without computing the full JS reconstruction error:
//
//   - the recursive binary partition of the (0,1) value space into n
//     variable-sized subspaces (Fig. 6a), with the hash mapping
//     h(k) = floor(k·2^(n−1)) whose group id falls out of the hash
//     index's bit length in O(1) (the groups are dyadic intervals, so
//     floor(log₂ idx) IS bits.Len(idx)−1 — the paper's Fig. 6b lookup
//     array materialises the same function, but at n = 20 that is a
//     512 KiB random-access table per filter, which costs more in cache
//     misses per segment than the two integer instructions it saves);
//   - the per-group (min,max) pair representation of a feature vector;
//   - REG_I, an upper bound on the JS divergence computed from group
//     representations only (Theorem 1);
//   - the L1-based JS bounds JSmax ≤ ½‖P−Q‖₁ and JSmin ≥ ⅛‖P−Q‖₁²
//     (Lin 1991 / Pinsker), used jointly with REG_I;
//   - the sparse-group hybrid (Nsg): the contributions of the sparsest
//     groups are computed exactly in the original space and reused
//     incrementally if the final exact REI is needed (§VI-C3);
//   - the MFC statistic of Table II.
//
// Note on Theorem 1: the published formula for REG_I (Eq. 18) is ambiguous
// as typeset. We implement a bound in the same group structure whose
// validity is immediate per dimension: log(2x/(x+y)) is increasing in x and
// decreasing in y, so for every dimension i of a group with f_i ∈ [fL, fU]
// and f̂_i ∈ [gL, gU],
//
//	log(2f_i/(f_i+f̂_i)) ≤ log(2fU/(fU+gL))
//	log(2f̂_i/(f_i+f̂_i)) ≤ log(2gU/(gU+fL))
//
// and therefore, with S_f = Σ_{i∈g} f_i and S_g = Σ_{i∈g} f̂_i,
//
//	JS_g = ½Σ f_i·log(2f_i/(f_i+f̂_i)) + ½Σ f̂_i·log(2f̂_i/(f_i+f̂_i))
//	     ≤ ½·S_f·max(0, log(2fU/(fU+gL))) + ½·S_g·max(0, log(2gU/(gU+fL))).
//
// The per-group summary is therefore (min, max, sum) per vector — the
// paper's (min, max) pair extended by the group mass, which makes the bound
// tight on the dense low-value groups where hundreds of tail dimensions
// share a subspace (the m/2-weighted form the paper prints is recovered by
// S_f ≤ m·fU, so this bound is never looser). Package tests verify
// REG_I ≥ JS on randomized inputs.
package adg

import (
	"fmt"
	"math"
	"math/bits"

	"aovlis/internal/mat"
)

// eps guards logarithms against zero probabilities.
const eps = 1e-12

// Partition is the recursive binary partition of (0,1) into N subspaces:
// group 0 = [1/2, 1), group j = [2^{-(j+1)}, 2^{-j}) for j < N−1, and group
// N−1 = [0, 2^{-(N-1)}). Smaller values get finer groups, matching the
// paper's observation that small dimension values are distributed densely.
type Partition struct {
	// N is the number of subspaces (20 in the paper, per Table II).
	N int
	// size is the hash range 2^(N−1).
	size int
}

// NewPartition builds the partition.
func NewPartition(n int) (*Partition, error) {
	if n < 2 || n > 26 {
		return nil, fmt.Errorf("adg: n must be in [2, 26], got %d", n)
	}
	return &Partition{N: n, size: 1 << (n - 1)}, nil
}

// groupOfIndex computes the group of hash index i analytically: the value
// interval [i·2^{-(n-1)}, (i+1)·2^{-(n-1)}) lies in group n−2−floor(log2 i)
// for i ≥ 1, and in the bottom group n−1 for i = 0. floor(log2 i) of a
// positive integer is exactly bits.Len(i)−1 — two instructions instead of
// a float log or a cache-hostile table walk (TestGroupOfIndexMatchesLog2
// pins the equivalence over every admissible index).
func groupOfIndex(i, n int) int {
	if i == 0 {
		return n - 1
	}
	return n - 1 - bits.Len(uint(i))
}

// GroupOf returns the group id of a value in [0, 1] via the hash mapping.
func (p *Partition) GroupOf(v float64) int {
	if v <= 0 {
		return p.N - 1
	}
	if v >= 1 {
		return 0
	}
	idx := int(v * float64(p.size))
	if idx >= p.size {
		idx = p.size - 1
	}
	return groupOfIndex(idx, p.N)
}

// JointRep groups dimensions by the *true* feature's values (both vectors
// are available at detection time) and keeps per-group (min,max) of both
// the true feature F and the reconstruction G over the same dimensions.
type JointRep struct {
	FMin, FMax []float64
	GMin, GMax []float64
	// FSum and GSum hold each group's total mass, the extension that keeps
	// the bound tight on dense tail groups (see the package comment).
	FSum, GSum []float64
	Count      []int
	// Dims lists the member dimensions of each group, needed by the
	// sparse-group hybrid to evaluate chosen groups exactly.
	Dims [][]int
}

// NewJointRep allocates an empty joint representation for a partition with
// n groups, reusable across segments via JointRepresentInto.
func NewJointRep(n int) *JointRep {
	return &JointRep{
		FMin: make([]float64, n), FMax: make([]float64, n),
		GMin: make([]float64, n), GMax: make([]float64, n),
		FSum: make([]float64, n), GSum: make([]float64, n),
		Count: make([]int, n),
		Dims:  make([][]int, n),
	}
}

// JointRepresent builds the joint representation of (f, fhat).
func (p *Partition) JointRepresent(f, fhat []float64) (*JointRep, error) {
	r := NewJointRep(p.N)
	if err := p.JointRepresentInto(r, f, fhat); err != nil {
		return nil, err
	}
	return r, nil
}

// JointRepresentInto fills r in place, reusing its buffers. The detection
// hot path calls this once per segment with a per-detector scratch value so
// the bound computation stays allocation-free.
func (p *Partition) JointRepresentInto(r *JointRep, f, fhat []float64) error {
	if len(f) != len(fhat) {
		return fmt.Errorf("adg: dimension mismatch %d vs %d", len(f), len(fhat))
	}
	if len(r.Count) != p.N {
		return fmt.Errorf("adg: representation sized for %d groups, partition has %d", len(r.Count), p.N)
	}
	for i := range r.FMin {
		r.FMin[i], r.GMin[i] = math.Inf(1), math.Inf(1)
		r.FMax[i], r.GMax[i] = math.Inf(-1), math.Inf(-1)
		r.FSum[i], r.GSum[i] = 0, 0
		r.Count[i] = 0
		r.Dims[i] = r.Dims[i][:0]
	}
	for i, v := range f {
		g := p.GroupOf(v)
		r.Count[g]++
		r.Dims[g] = append(r.Dims[g], i)
		r.FSum[g] += v
		if v < r.FMin[g] {
			r.FMin[g] = v
		}
		if v > r.FMax[g] {
			r.FMax[g] = v
		}
		w := fhat[i]
		r.GSum[g] += w
		if w < r.GMin[g] {
			r.GMin[g] = w
		}
		if w > r.GMax[g] {
			r.GMax[g] = w
		}
	}
	return nil
}

// groupBound returns the upper bound of the JS contribution of one group:
// ½·S_f·max(0, log(2fU/(fU+gL))) + ½·S_g·max(0, log(2gU/(gU+fL))).
func groupBound(fU, fL, gU, gL, fSum, gSum float64) float64 {
	logF := math.Log((2*fU + eps) / (fU + gL + eps))
	if logF < 0 {
		logF = 0
	}
	logG := math.Log((2*gU + eps) / (gU + fL + eps))
	if logG < 0 {
		logG = 0
	}
	return 0.5*fSum*logF + 0.5*gSum*logG
}

// REGUpper computes REG_I = Σ REg_i, the ADG upper bound of the JS
// divergence between the represented pair (Theorem 1).
func REGUpper(rep *JointRep) float64 {
	var total float64
	for g := range rep.Count {
		if rep.Count[g] == 0 {
			continue
		}
		total += groupBound(rep.FMax[g], rep.FMin[g], rep.GMax[g], rep.GMin[g], rep.FSum[g], rep.GSum[g])
	}
	return total
}

// jsContribution returns the exact JS contribution of one dimension pair.
func jsContribution(p, q float64) float64 {
	m := (p + q) / 2
	var c float64
	if p > 0 {
		c += 0.5 * p * math.Log((p+eps)/(m+eps))
	}
	if q > 0 {
		c += 0.5 * q * math.Log((q+eps)/(m+eps))
	}
	return c
}

// JSExact computes the exact JS divergence (reference implementation used
// by the filter's final verification step).
func JSExact(f, fhat []float64) float64 {
	var js float64
	for i := range f {
		js += jsContribution(f[i], fhat[i])
	}
	if js < 0 {
		js = 0
	}
	return js
}

// L1Bounds returns the L1-based bounds jsmin = ⅛‖f−f̂‖₁² ≤ JS(f, f̂) ≤
// jsmax = ½‖f−f̂‖₁ (§V-A2, after Lin 1991), both valid for the natural-log
// JS divergence. Package tests verify them property-style.
func L1Bounds(f, fhat []float64) (jsmin, jsmax float64) {
	l1 := mat.VecL1Distance(f, fhat)
	return 0.125 * l1 * l1, 0.5 * l1
}

// HybridBound is the sparse-group refinement of REG_I: the Nsg groups with
// the fewest member dimensions (the sparse groups, which hold the dominant
// feature values and produce the loosest per-group bounds) are evaluated
// exactly in the original space; the rest keep the group bound. The exact
// portion is returned so a subsequent full REI computation can reuse it
// incrementally instead of recomputing those dimensions.
type HybridBound struct {
	// Upper is the refined upper bound: ExactPart + bound over the rest.
	Upper float64
	// ExactPart is the exact JS contribution of the exactly-evaluated
	// dimensions.
	ExactPart float64
	// ExactGroups marks which groups were evaluated exactly.
	ExactGroups []bool
	// occ is reusable scratch for sparse-group selection.
	occ []gc
}

// REGUpperHybrid computes the refined bound with nsg exact groups.
func REGUpperHybrid(rep *JointRep, f, fhat []float64, nsg int) HybridBound {
	var hb HybridBound
	REGUpperHybridInto(&hb, rep, f, fhat, nsg)
	return hb
}

// gc pairs a group index with its member count for sparse-group selection.
type gc struct{ g, n int }

// REGUpperHybridInto computes the refined bound into hb, reusing its
// ExactGroups and internal scratch so a filtering pass stays
// allocation-free (each of internal/ados's filters owns one HybridBound).
func REGUpperHybridInto(hb *HybridBound, rep *JointRep, f, fhat []float64, nsg int) {
	if cap(hb.ExactGroups) < len(rep.Count) {
		hb.ExactGroups = make([]bool, len(rep.Count))
	}
	hb.ExactGroups = hb.ExactGroups[:len(rep.Count)]
	for i := range hb.ExactGroups {
		hb.ExactGroups[i] = false
	}
	hb.Upper, hb.ExactPart = 0, 0
	if nsg > 0 {
		occupied := hb.occ[:0]
		for g, n := range rep.Count {
			if n > 0 {
				occupied = append(occupied, gc{g, n})
			}
		}
		hb.occ = occupied
		// Insertion sort by (count, group) — at most PartitionN (20) entries,
		// unique group keys, so the order matches any comparison sort.
		for i := 1; i < len(occupied); i++ {
			for j := i; j > 0; j-- {
				a, b := occupied[j-1], occupied[j]
				if b.n < a.n || (b.n == a.n && b.g < a.g) {
					occupied[j-1], occupied[j] = b, a
				} else {
					break
				}
			}
		}
		if nsg > len(occupied) {
			nsg = len(occupied)
		}
		for _, o := range occupied[:nsg] {
			hb.ExactGroups[o.g] = true
		}
	}
	var total float64
	for g := range rep.Count {
		if rep.Count[g] == 0 {
			continue
		}
		if hb.ExactGroups[g] {
			for _, i := range rep.Dims[g] {
				hb.ExactPart += jsContribution(f[i], fhat[i])
			}
		} else {
			total += groupBound(rep.FMax[g], rep.FMin[g], rep.GMax[g], rep.GMin[g], rep.FSum[g], rep.GSum[g])
		}
	}
	hb.Upper = hb.ExactPart + total
}

// FinishExact completes the exact REI from a hybrid bound by evaluating the
// remaining (non-exact) groups, reusing the already-computed exact part —
// the incremental computation of §VI-C3.
func FinishExact(rep *JointRep, hb HybridBound, f, fhat []float64) float64 {
	total := hb.ExactPart
	for g := range rep.Count {
		if rep.Count[g] == 0 || hb.ExactGroups[g] {
			continue
		}
		for _, i := range rep.Dims[g] {
			total += jsContribution(f[i], fhat[i])
		}
	}
	if total < 0 {
		total = 0
	}
	return total
}

// MFC computes the paper's "minimal feature contribution" statistic of
// Table II: over a sample of (f, f̂) pairs, the largest exact JS
// contribution among dimensions that fall into the partition's bottom
// group (the smallest-value subspace). As n grows the bottom group
// shrinks, so MFC → 0, which justifies the paper's choice n = 20.
func MFC(n int, pairs [][2][]float64) (float64, error) {
	p, err := NewPartition(n)
	if err != nil {
		return 0, err
	}
	var worst float64
	for _, pair := range pairs {
		f, fhat := pair[0], pair[1]
		if len(f) != len(fhat) {
			return 0, fmt.Errorf("adg: MFC pair dimension mismatch %d vs %d", len(f), len(fhat))
		}
		for i := range f {
			if p.GroupOf(f[i]) != p.N-1 {
				continue
			}
			if c := jsContribution(f[i], fhat[i]); c > worst {
				worst = c
			}
		}
	}
	return worst, nil
}
