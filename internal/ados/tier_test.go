package ados

// Unit tests for the TierPlan skip gate, plus the satellite-6 audit: every
// counter field of Stats and TierStats must round-trip symmetrically
// through ResetStats/RestoreStats (reflection-driven so a future field
// cannot silently escape the reset/restore pair), and TierState must carry
// the full gating state.

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
)

// tierFixture returns a gate with a short run budget and the τ and ω its
// segments are scored against.
func tierFixture(t *testing.T) (tp *TierPlan, tau, omega float64) {
	t.Helper()
	tp, err := NewTierPlan(TierConfig{DriftMax: 0.2, Margin: 0.8, MaxRun: 3}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tp, 0.5, 0.7
}

func TestTierPlanGate(t *testing.T) {
	tp, tau, omega := tierFixture(t)
	f := []float64{0.7, 0.1, 0.1, 0.1}
	a := []float64{0.3, 0.3}

	// No anchor yet: never skips.
	if _, ok := tp.Gate(f, a, tau, omega); ok {
		t.Fatal("Gate skipped without an anchor")
	}

	// Perfect anchor (f̂ = f, â = a): REA = 0, drift = 0, jsmax = 0 → skip.
	tp.Commit(f, f, a, false)
	res, ok := tp.Gate(f, a, tau, omega)
	if !ok {
		t.Fatal("Gate did not skip a zero-drift segment on a normal anchor")
	}
	if res.Anomaly {
		t.Fatal("tier skip produced an anomaly verdict — skips must be one-sided normal")
	}
	if res.Path != PathTierSkip || res.Exact {
		t.Fatalf("tier skip result %+v, want PathTierSkip/inexact", res)
	}
	if res.Path.String() != "tier-skip" {
		t.Fatalf("PathTierSkip.String() = %q", res.Path.String())
	}

	// MaxRun exhausts the anchor (1 skip done, 2 more allowed).
	for i := 0; i < 2; i++ {
		if _, ok := tp.Gate(f, a, tau, omega); !ok {
			t.Fatalf("skip %d rejected before MaxRun", i+2)
		}
	}
	if _, ok := tp.Gate(f, a, tau, omega); ok {
		t.Fatal("Gate skipped past MaxRun")
	}
	if tp.Stats().Forced != 1 {
		t.Fatalf("Forced = %d, want 1", tp.Stats().Forced)
	}

	// Drift beyond DriftMax forces exact.
	tp.Commit(f, f, a, false)
	drifted := []float64{0.1, 0.7, 0.1, 0.1} // ½‖Δ‖₁ = 0.6 > 0.2
	if _, ok := tp.Gate(drifted, a, tau, omega); ok {
		t.Fatal("Gate skipped a drifted segment")
	}
	if tp.Stats().Drifted != 1 {
		t.Fatalf("Drifted = %d, want 1", tp.Stats().Drifted)
	}

	// Anomalous anchor disables skipping entirely.
	tp.Commit(f, f, a, true)
	if _, ok := tp.Gate(f, a, tau, omega); ok {
		t.Fatal("Gate skipped on an anomalous anchor")
	}

	// A normal exact score re-arms it.
	tp.Commit(f, f, a, false)
	if _, ok := tp.Gate(f, a, tau, omega); !ok {
		t.Fatal("Gate did not re-arm after a normal Commit")
	}

	// Audience error big enough that T_a ≤ 0: never skip (the audience
	// term alone can decide anomaly).
	tp.Commit(f, f, []float64{5, 5}, false)
	if _, ok := tp.Gate(f, []float64{-5, -5}, tau, omega); ok {
		t.Fatal("Gate skipped with T_a ≤ 0")
	}

	// ω = 0 never skips.
	tp.Commit(f, f, a, false)
	if _, ok := tp.Gate(f, a, tau, 0); ok {
		t.Fatal("Gate skipped with ω = 0")
	}
}

func TestTierPlanProxyScore(t *testing.T) {
	tp, tau, omega := tierFixture(t)
	f := []float64{0.7, 0.1, 0.1, 0.1}
	fhat := []float64{0.68, 0.12, 0.1, 0.1}
	a := []float64{0.3, 0.3}
	ahat := []float64{0.31, 0.29}
	tp.Commit(f, fhat, ahat, false)
	res, ok := tp.Gate(f, a, tau, omega)
	if !ok {
		t.Fatal("near-anchor segment did not skip")
	}
	// Score must be ω·jsmaxProxy + (1−ω)·reaProxy with the anchor's
	// predictions standing in for the model's.
	jsmax := 0.5 * (math.Abs(0.7-0.68) + math.Abs(0.1-0.12))
	rea := 0.5 * (math.Abs(0.3-0.31)*math.Abs(0.3-0.31) + math.Abs(0.3-0.29)*math.Abs(0.3-0.29))
	_ = rea // REA's exact form lives in core; just sanity-bound the score.
	if res.REIA <= 0 || res.REIA >= tau {
		t.Fatalf("proxy score %v outside (0, τ)", res.REIA)
	}
	if res.REIA < omega*jsmax {
		t.Fatalf("proxy score %v below its ω·jsmax term %v", res.REIA, omega*jsmax)
	}
}

func TestTierPlanStateRoundTrip(t *testing.T) {
	tp, tau, omega := tierFixture(t)
	f := []float64{0.7, 0.1, 0.1, 0.1}
	a := []float64{0.3, 0.3}
	tp.Commit(f, f, a, false)
	if _, ok := tp.Gate(f, a, tau, omega); !ok {
		t.Fatal("setup skip failed")
	}

	st := tp.State()

	// gob round-trip (the snapshot wire format embeds TierState).
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var decoded TierState
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, decoded) {
		t.Fatalf("gob round-trip changed state: %+v vs %+v", st, decoded)
	}

	fresh, err := NewTierPlan(tp.Config(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SetState(decoded); err != nil {
		t.Fatal(err)
	}
	// The restored gate must behave identically: same counters, same
	// remaining run budget (1 of 3 used → 2 skips left, then forced).
	if got, want := fresh.Stats(), tp.Stats(); got != want {
		t.Fatalf("restored stats %+v, want %+v", got, want)
	}
	for i := 0; i < 2; i++ {
		if _, ok := fresh.Gate(f, a, tau, omega); !ok {
			t.Fatalf("restored gate rejected skip %d", i)
		}
	}
	if _, ok := fresh.Gate(f, a, tau, omega); ok {
		t.Fatal("restored gate ignored the inherited run count")
	}

	// Dim mismatch must be rejected.
	wrong, err := NewTierPlan(tp.Config(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.SetState(decoded); err == nil {
		t.Fatal("SetState accepted mismatched dims")
	}
}

func TestTierPlanConfigValidation(t *testing.T) {
	cases := []TierConfig{
		{DriftMax: 0, Margin: 0.8, MaxRun: 8},
		{DriftMax: -1, Margin: 0.8, MaxRun: 8},
		{DriftMax: 0.1, Margin: 0, MaxRun: 8},
		{DriftMax: 0.1, Margin: 1.5, MaxRun: 8},
		{DriftMax: 0.1, Margin: 0.8, MaxRun: -1},
	}
	for _, cfg := range cases {
		if _, err := NewTierPlan(cfg, 4, 2); err == nil {
			t.Errorf("NewTierPlan(%+v) accepted invalid config", cfg)
		}
	}
	if _, err := NewTierPlan(DefaultTierConfig(), 4, 2); err != nil {
		t.Errorf("DefaultTierConfig rejected: %v", err)
	}
}

// fillCounters sets every int field of a counters struct to a distinct
// non-zero value via reflection, so the round-trip tests below cover
// fields added later automatically.
func fillCounters(v reflect.Value, base int) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Int {
			f.SetInt(int64(base + i + 1))
		}
	}
}

// TestStatsRoundTripSymmetry is the satellite-6 audit: Filter.Stats and
// TierPlan.TierStats must reset to zero and restore to exactly what was
// stored, for EVERY field (reflection catches fields added without
// updating the reset/restore pair — both are whole-struct assignments, so
// this pins that they stay that way).
func TestStatsRoundTripSymmetry(t *testing.T) {
	t.Run("Filter", func(t *testing.T) {
		f, err := NewFilter(DefaultConfig(0.5, 0.7))
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		fillCounters(reflect.ValueOf(&st).Elem(), 100)
		f.RestoreStats(st)
		if got := f.Stats(); got != st {
			t.Fatalf("RestoreStats lost fields: got %+v, want %+v", got, st)
		}
		f.ResetStats()
		if got := f.Stats(); got != (Stats{}) {
			t.Fatalf("ResetStats left fields: %+v", got)
		}
	})
	t.Run("TierPlan", func(t *testing.T) {
		tp, err := NewTierPlan(DefaultTierConfig(), 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		var st TierStats
		fillCounters(reflect.ValueOf(&st).Elem(), 200)
		tp.RestoreStats(st)
		if got := tp.Stats(); got != st {
			t.Fatalf("RestoreStats lost fields: got %+v, want %+v", got, st)
		}
		tp.ResetStats()
		if got := tp.Stats(); got != (TierStats{}) {
			t.Fatalf("ResetStats left fields: %+v", got)
		}
		// State must carry the counters too (Snapshot/Restore path).
		fillCounters(reflect.ValueOf(&st).Elem(), 300)
		tp.RestoreStats(st)
		if got := tp.State().Stats; got != st {
			t.Fatalf("State dropped counters: got %+v, want %+v", got, st)
		}
	})
}
