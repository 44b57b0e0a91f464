package ados

// Tiered scoring: bound-gated skipping of the LSTM predict. A served
// verdict is the exact REIA, and every score needs the model's
// reconstruction f̂, so the LSTM forward pass dominates Observe. The
// TierPlan borrows the Filter's JSmax bound to skip that pass: it reuses
// the predictions of the last exactly-scored segment (the ANCHOR) as a
// proxy reconstruction, and when the stream has drifted little since the
// anchor AND the proxy JSmax bound clears the normal threshold with
// margin, the segment is declared normal without running the model at
// all.
//
// The skip condition is deliberately one-sided: a skipped segment is
// always scored NORMAL. Tiering can therefore only delay an anomaly
// verdict (a missed flip), never invent one — the false-alarm-rate-under-
// pruning frame of Doshi & Yilmaz (PAPERS.md): pruning the detector's
// update/score work perturbs detection delay and miss probability in a
// way that is bounded and measurable, not open-ended. The correctness
// budget is empirical, pinned by the verdict-flip-rate harness at the
// repo root (TestTieredVerdictFlipRate): exact vs tiered verdicts over
// golden and synthetic drift streams must agree within a checked-in flip
// budget.
//
// Guard rails, all of which force the exact path:
//
//   - no anchor yet, or the anchor segment was anomalous (an anomalous
//     regime must keep exact scoring until the stream is calm again);
//   - the anchor has been reused MaxRun times (bounded staleness);
//   - drift ½‖f_t − f_anchor‖₁ exceeds DriftMax — drift is measured
//     against the anchor, not the previous segment, so consecutive small
//     steps cannot creep arbitrarily far from the reconstruction the
//     proxy bound is based on;
//   - the REA-converted threshold T_a is not positive (the audience term
//     alone could decide anomaly — never skip those);
//   - the proxy bound ½‖f_t − f̂_anchor‖₁ is not below Margin·T_n (the
//     skip needs headroom, not a coin-flip).

import (
	"fmt"

	"aovlis/internal/core"
	"aovlis/internal/mat"
)

// tierTnRatio places the gate's normal threshold at T_n = 0.7·T_a, the
// paper's ratio (§VI-A) and DefaultConfig's TnRatio.
const tierTnRatio = 0.7

// TierConfig parameterises the skip gate.
type TierConfig struct {
	// DriftMax is the maximum anchor drift ½‖f_t − f_anchor‖₁ at which a
	// skip is still considered; beyond it the anchor's reconstruction is
	// assumed stale.
	DriftMax float64
	// Margin scales the JSmax normal threshold for the proxy test: skip
	// only when ½‖f_t − f̂_anchor‖₁ ≤ Margin·T_n with Margin ∈ (0, 1].
	Margin float64
	// MaxRun bounds how many consecutive segments one anchor may clear
	// before an exact rescore is forced. 0 means no bound.
	MaxRun int
}

// DefaultTierConfig is the shipped operating point: skip only very close
// to the anchor (the streams' step-to-step drift is what this must beat),
// with 20% threshold headroom and an exact rescore at least every 32
// segments.
func DefaultTierConfig() TierConfig {
	return TierConfig{DriftMax: 0.15, Margin: 0.8, MaxRun: 32}
}

// TierStats counts gate activity, surfaced through serve.ChannelStats.
type TierStats struct {
	// Gated counts segments that consulted the gate.
	Gated int
	// Skipped counts segments cleared without the LSTM predict.
	Skipped int
	// Forced counts segments sent to the exact path by the MaxRun bound.
	Forced int
	// Drifted counts segments sent to the exact path by the drift bound.
	Drifted int
	// Unclear counts segments whose proxy bound could not clear the
	// margin (including T_a ≤ 0).
	Unclear int
}

// TierState is the gob-portable snapshot of a TierPlan's gating state —
// everything replay determinism needs to survive Snapshot/Restore.
type TierState struct {
	// Have reports whether an anchor is recorded.
	Have bool
	// Anomalous reports whether the anchor segment was an anomaly.
	Anomalous bool
	// Run is the current anchor's reuse count.
	Run int
	// FAnchor/FHat/AHat are the anchor's true action feature and its
	// model predictions.
	FAnchor, FHat, AHat []float64
	// Stats are the lifetime gate counters.
	Stats TierStats
}

// TierPlan is the per-detector skip gate. Like the Filter it is
// single-goroutine state, confined wherever its owning detector is.
type TierPlan struct {
	cfg        TierConfig
	actDim     int
	audDim     int
	have       bool
	anomalous  bool
	run        int
	fAnchor    []float64
	fhat, ahat []float64
	st         TierStats
}

// NewTierPlan validates cfg and builds a gate for the given feature dims.
func NewTierPlan(cfg TierConfig, actionDim, audienceDim int) (*TierPlan, error) {
	if cfg.DriftMax <= 0 {
		return nil, fmt.Errorf("ados: tier DriftMax must be positive, got %v", cfg.DriftMax)
	}
	if cfg.Margin <= 0 || cfg.Margin > 1 {
		return nil, fmt.Errorf("ados: tier Margin must be in (0,1], got %v", cfg.Margin)
	}
	if cfg.MaxRun < 0 {
		return nil, fmt.Errorf("ados: tier MaxRun must be ≥ 0, got %d", cfg.MaxRun)
	}
	if actionDim <= 0 || audienceDim < 0 {
		return nil, fmt.Errorf("ados: tier dims %d/%d", actionDim, audienceDim)
	}
	return &TierPlan{
		cfg: cfg, actDim: actionDim, audDim: audienceDim,
		fAnchor: make([]float64, actionDim),
		fhat:    make([]float64, actionDim),
		ahat:    make([]float64, audienceDim),
	}, nil
}

// Config returns the gate configuration.
func (t *TierPlan) Config() TierConfig { return t.cfg }

// Gate consults the anchor bound for one segment against the owner's
// CURRENT threshold tau and REIA weight omega (passed per call, so a new τ
// is honoured immediately). When the segment can be confidently cleared it
// returns the tier-skip Result and true; otherwise the caller must predict
// and score the segment exactly and Commit the outcome.
func (t *TierPlan) Gate(fTrue, aTrue []float64, tau, omega float64) (Result, bool) {
	t.st.Gated++
	if !t.have || t.anomalous {
		return Result{}, false
	}
	if t.cfg.MaxRun > 0 && t.run >= t.cfg.MaxRun {
		t.st.Forced++
		return Result{}, false
	}
	if omega == 0 {
		// Pure audience scoring needs â from the model every segment;
		// there is nothing to skip.
		t.st.Unclear++
		return Result{}, false
	}
	drift := 0.5 * mat.VecL1Distance(fTrue, t.fAnchor)
	if drift > t.cfg.DriftMax {
		t.st.Drifted++
		return Result{}, false
	}
	var rea float64
	if omega < 1 {
		rea = core.REA(aTrue, t.ahat)
	}
	// Threshold conversion exactly as Filter.Decide does it.
	ta := (tau - (1-omega)*rea) / omega
	if ta <= 0 {
		t.st.Unclear++
		return Result{}, false
	}
	tn := tierTnRatio * ta
	jsmax := 0.5 * mat.VecL1Distance(fTrue, t.fhat)
	if jsmax > t.cfg.Margin*tn {
		t.st.Unclear++
		return Result{}, false
	}
	t.st.Skipped++
	t.run++
	// The proxy score mirrors the JSmax bound's conservative estimate.
	score := omega*jsmax + (1-omega)*rea
	return Result{Anomaly: false, Path: PathTierSkip, REIA: score, Exact: false}, true
}

// Commit records an exactly-scored segment as the new anchor: its true
// action feature and the model's predictions, plus whether it was
// anomalous (anomalous anchors disable skipping until a normal exact
// score re-arms the gate).
func (t *TierPlan) Commit(fTrue, fHat, aHat []float64, anomalous bool) {
	copy(t.fAnchor, fTrue)
	copy(t.fhat, fHat)
	copy(t.ahat, aHat)
	t.have = true
	t.anomalous = anomalous
	t.run = 0
}

// Stats returns a snapshot of the gate counters.
func (t *TierPlan) Stats() TierStats { return t.st }

// State snapshots the full gating state (anchor + counters).
func (t *TierPlan) State() TierState {
	return TierState{
		Have:      t.have,
		Anomalous: t.anomalous,
		Run:       t.run,
		FAnchor:   append([]float64(nil), t.fAnchor...),
		FHat:      append([]float64(nil), t.fhat...),
		AHat:      append([]float64(nil), t.ahat...),
		Stats:     t.st,
	}
}

// SetState restores a snapshot taken by State on a gate with the same
// feature dims.
func (t *TierPlan) SetState(s TierState) error {
	if s.Have {
		if len(s.FAnchor) != t.actDim || len(s.FHat) != t.actDim || len(s.AHat) != t.audDim {
			return fmt.Errorf("ados: tier state dims f=%d fhat=%d a=%d, want %d/%d/%d",
				len(s.FAnchor), len(s.FHat), len(s.AHat), t.actDim, t.actDim, t.audDim)
		}
		copy(t.fAnchor, s.FAnchor)
		copy(t.fhat, s.FHat)
		copy(t.ahat, s.AHat)
	}
	t.have = s.Have
	t.anomalous = s.Anomalous
	t.run = s.Run
	t.st = s.Stats
	return nil
}
