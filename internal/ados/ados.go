// Package ados implements the paper's ADaptive Optimisation Strategy (§V-B,
// Fig. 7): a layered filter that decides whether a segment is an anomaly
// while avoiding the expensive exact JS reconstruction error whenever a
// cheaper bound already decides.
//
// Layers, in order:
//
//  1. Trigger tFunc on the dominant dimension of the action feature
//     (Eq. 23) decides whether the L1-based bounds are worth computing.
//     The published thresholds live on two scales (T1 ∈ [1.1, 2.0],
//     T2 ∈ [0, 0.6]), so the trigger reads two quantities from the dominant
//     dimension i of f: the ratio r = max(f_i,f̂_i)/min(f_i,f̂_i) and the
//     difference d = |f_i − f̂_i|. L1 bounds are computed when r ≤ T1
//     (dominant dims agree → the whole-vector L1 is likely small → the
//     JSmax test likely filters the segment as normal) or when d ≥ T2
//     (dominant dims differ strongly → JSmin likely exceeds the anomaly
//     threshold). In the ambiguous middle the L1 pass rarely decides and
//     is skipped.
//  2. L1 bounds: JSmax = ½‖f−f̂‖₁ < T_n ⇒ normal; JSmin = ⅛‖f−f̂‖₁² > T_a
//     ⇒ anomaly.
//  3. ADG bound: REG_I (with Nsg sparse groups exact) ≤ T_n ⇒ normal.
//  4. Exact REI, reusing the sparse-group contributions incrementally.
//
// Thresholds: the anomaly decision is on the fused score REIA = ω·REI +
// (1−ω)·REA (Eq. 16) against τ. REA is cheap, so the filter computes it
// first and converts τ into a per-segment REI threshold
// T_a = (τ − (1−ω)·REA)/ω, with T_n = TnRatio·T_a (the paper's
// T_n = 0.7·T_a).
package ados

import (
	"fmt"

	"aovlis/internal/adg"
	"aovlis/internal/core"
	"aovlis/internal/mat"
)

// Strategy selects which bound layers the filter uses — the configurations
// compared in Fig. 11.
type Strategy int

const (
	// StrategyNoBound always computes the exact REI.
	StrategyNoBound Strategy = iota
	// StrategyJSmaxOnly uses only the L1 upper bound.
	StrategyJSmaxOnly
	// StrategyJSminOnly uses only the L1 lower bound.
	StrategyJSminOnly
	// StrategyREGOnly uses only the ADG upper bound.
	StrategyREGOnly
	// StrategyL1 uses both L1 bounds (JSmin+JSmax), always computed.
	StrategyL1
	// StrategyAllBounds applies JSmin+JSmax then REG_I, unconditionally.
	StrategyAllBounds
	// StrategyADOS is the full adaptive strategy with the tFunc trigger.
	StrategyADOS
)

// String names the strategy as in Fig. 11.
func (s Strategy) String() string {
	switch s {
	case StrategyNoBound:
		return "NoBound"
	case StrategyJSmaxOnly:
		return "JSmax"
	case StrategyJSminOnly:
		return "JSmin"
	case StrategyREGOnly:
		return "REG_I"
	case StrategyL1:
		return "JSmin+JSmax"
	case StrategyAllBounds:
		return "JSmin+JSmax+REG_I"
	case StrategyADOS:
		return "ADOS"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config parameterises the filter.
type Config struct {
	// Omega is ω of the fused REIA score.
	Omega float64
	// Tau is the anomaly threshold on the REIA scale.
	Tau float64
	// TnRatio sets T_n = TnRatio·T_a (0.7 in the paper).
	TnRatio float64
	// T1, T2 are the ADOS trigger thresholds (ratio and difference scales).
	T1, T2 float64
	// Nsg is the number of sparse groups evaluated exactly inside REG_I.
	Nsg int
	// PartitionN is the ADG subspace count (20 in the paper).
	PartitionN int
	// Strategy selects the bound layers.
	Strategy Strategy
}

// DefaultConfig returns the paper's operating point for a given τ and ω.
func DefaultConfig(tau, omega float64) Config {
	return Config{
		Omega: omega, Tau: tau, TnRatio: 0.7,
		T1: 1.6, T2: 0.5, Nsg: 10, PartitionN: 20,
		Strategy: StrategyADOS,
	}
}

// Path records which layer decided a segment.
type Path int

const (
	// PathJSmax: filtered as normal by the L1 upper bound.
	PathJSmax Path = iota
	// PathJSmin: filtered as anomaly by the L1 lower bound.
	PathJSmin
	// PathREG: filtered as normal by the ADG upper bound.
	PathREG
	// PathExact: decided by the exact REI computation.
	PathExact
	// PathREAOnly: decided by the audience error alone (T_a ≤ 0: the REA
	// term already exceeds τ, or ω = 0).
	PathREAOnly
	// PathTierSkip: cleared as normal by the TierPlan's anchor bound
	// before the LSTM predict ran (tiered scoring, ISSUE 6).
	PathTierSkip
)

// String names the deciding layer.
func (p Path) String() string {
	switch p {
	case PathJSmax:
		return "JSmax"
	case PathJSmin:
		return "JSmin"
	case PathREG:
		return "REG_I"
	case PathExact:
		return "exact"
	case PathREAOnly:
		return "REA-only"
	case PathTierSkip:
		return "tier-skip"
	default:
		return fmt.Sprintf("Path(%d)", int(p))
	}
}

// Stats counts filter activity for the filtering-power and efficiency
// experiments (Fig. 11).
type Stats struct {
	Total         int
	L1Skipped     int // trigger decided the L1 pass was not worth it
	L1Computed    int
	FilteredJSmax int
	FilteredJSmin int
	FilteredREG   int
	ExactREI      int
	Anomalies     int
}

// FilteredTotal is the number of segments decided without the exact REI.
func (s Stats) FilteredTotal() int {
	return s.FilteredJSmax + s.FilteredJSmin + s.FilteredREG
}

// Result is the decision for one segment.
type Result struct {
	// Anomaly is the decision.
	Anomaly bool
	// Path is the deciding layer.
	Path Path
	// REIA is the fused score when the exact REI was computed; when a bound
	// decided, REIA holds the bound-implied conservative estimate.
	REIA float64
	// Exact reports whether REIA is the exact fused score.
	Exact bool
}

// Filter is the ADOS anomaly filter. It is not safe for concurrent use;
// create one per detection goroutine (scratch buffers are reused).
type Filter struct {
	cfg  Config
	part *adg.Partition
	rep  *adg.JointRep
	hb   adg.HybridBound // reusable sparse-group scratch
	st   Stats
}

// NewFilter validates cfg and builds the filter.
func NewFilter(cfg Config) (*Filter, error) {
	if cfg.Omega < 0 || cfg.Omega > 1 {
		return nil, fmt.Errorf("ados: Omega must be in [0,1], got %v", cfg.Omega)
	}
	if cfg.TnRatio < 0 || cfg.TnRatio > 1 {
		return nil, fmt.Errorf("ados: TnRatio must be in [0,1], got %v", cfg.TnRatio)
	}
	if cfg.PartitionN == 0 {
		cfg.PartitionN = 20
	}
	part, err := adg.NewPartition(cfg.PartitionN)
	if err != nil {
		return nil, err
	}
	return &Filter{cfg: cfg, part: part, rep: adg.NewJointRep(cfg.PartitionN)}, nil
}

// Config returns the filter configuration.
func (f *Filter) Config() Config { return f.cfg }

// Stats returns a snapshot of the activity counters.
func (f *Filter) Stats() Stats { return f.st }

// trigger reports whether the L1 pass should be computed for this segment.
func (f *Filter) trigger(fTrue, fHat []float64) bool {
	i := mat.VecArgMax(fTrue)
	if i < 0 {
		return true
	}
	const eps = 1e-12
	hi, lo := fTrue[i], fHat[i]
	if lo > hi {
		hi, lo = lo, hi
	}
	ratio := (hi + eps) / (lo + eps)
	diff := hi - lo
	return ratio <= f.cfg.T1 || diff >= f.cfg.T2
}

// Decide classifies one segment given the true and reconstructed feature
// pairs. aTrue/aHat may be nil when ω = 1 (action-only scoring).
func (f *Filter) Decide(fTrue, fHat, aTrue, aHat []float64) (Result, error) {
	if len(fTrue) != len(fHat) {
		return Result{}, fmt.Errorf("ados: action feature dims %d vs %d", len(fTrue), len(fHat))
	}
	f.st.Total++

	// Audience part first: cheap, and it converts τ to the REI scale.
	var rea float64
	if f.cfg.Omega < 1 {
		if len(aTrue) != len(aHat) {
			return Result{}, fmt.Errorf("ados: audience feature dims %d vs %d", len(aTrue), len(aHat))
		}
		rea = core.REA(aTrue, aHat)
	}
	omega := f.cfg.Omega
	if omega == 0 {
		// Pure audience scoring; no REI needed at all.
		score := rea
		anomaly := score > f.cfg.Tau
		if anomaly {
			f.st.Anomalies++
		}
		return Result{Anomaly: anomaly, Path: PathREAOnly, REIA: score, Exact: true}, nil
	}
	ta := reiThreshold(f.cfg.Tau, omega, rea)
	if ta <= 0 {
		// The audience error alone exceeds τ: anomaly regardless of REI.
		f.st.Anomalies++
		return Result{Anomaly: true, Path: PathREAOnly, REIA: f.cfg.Tau, Exact: false}, nil
	}
	tn := f.cfg.TnRatio * ta

	finish := func(rei float64, path Path, exact bool) Result {
		score := core.Score{REI: rei, REA: rea}.REIAOf(omega)
		anomaly := score > f.cfg.Tau
		if !exact {
			// Bound-decided: the decision is authoritative, the score is an
			// estimate on the deciding side of τ.
			anomaly = path == PathJSmin
		}
		if anomaly {
			f.st.Anomalies++
		}
		return Result{Anomaly: anomaly, Path: path, REIA: score, Exact: exact}
	}

	useL1 := false
	switch f.cfg.Strategy {
	case StrategyJSmaxOnly, StrategyJSminOnly, StrategyL1, StrategyAllBounds:
		useL1 = true
	case StrategyADOS:
		useL1 = f.trigger(fTrue, fHat)
		if !useL1 {
			f.st.L1Skipped++
		}
	}

	if useL1 {
		f.st.L1Computed++
		jsmin, jsmax := adg.L1Bounds(fTrue, fHat)
		if f.cfg.Strategy != StrategyJSminOnly && jsmax < tn {
			f.st.FilteredJSmax++
			return finish(jsmax, PathJSmax, false), nil
		}
		if f.cfg.Strategy != StrategyJSmaxOnly && jsmin > ta {
			f.st.FilteredJSmin++
			return finish(jsmin, PathJSmin, false), nil
		}
	}

	useREG := f.cfg.Strategy == StrategyREGOnly || f.cfg.Strategy == StrategyAllBounds || f.cfg.Strategy == StrategyADOS
	if useREG {
		if err := f.part.JointRepresentInto(f.rep, fTrue, fHat); err != nil {
			return Result{}, err
		}
		adg.REGUpperHybridInto(&f.hb, f.rep, fTrue, fHat, f.cfg.Nsg)
		if f.hb.Upper <= tn {
			f.st.FilteredREG++
			return finish(f.hb.Upper, PathREG, false), nil
		}
		// Exact REI reusing the sparse-group contributions.
		f.st.ExactREI++
		rei := adg.FinishExact(f.rep, f.hb, fTrue, fHat)
		return finish(rei, PathExact, true), nil
	}

	// Exact fallback without ADG reuse.
	f.st.ExactREI++
	rei := adg.JSExact(fTrue, fHat)
	return finish(rei, PathExact, true), nil
}

// reiThreshold converts τ to the REI scale given the segment's audience
// error: REIA > τ exactly when REI > (τ − (1−ω)·REA)/ω, for ω > 0.
func reiThreshold(tau, omega, rea float64) float64 {
	return (tau - float64((1-omega)*rea)) / omega
}

// FilteringPower returns the fraction of processed segments decided by
// bounds (the paper's fp metric).
func (f *Filter) FilteringPower() float64 {
	if f.st.Total == 0 {
		return 0
	}
	return float64(f.st.FilteredTotal()) / float64(f.st.Total)
}
