package loadgen

import (
	"math"
	"testing"
	"time"
)

func raidCfg() Config {
	return Config{Shape: RaidBrigade, Seed: 11, Duration: 10 * time.Second,
		BaseRate: 50, PeakRate: 400, SpikeStart: 3 * time.Second,
		SpikeDur: 3 * time.Second, Channels: 4, ActionDim: 8, AudienceDim: 3,
		RaidTarget: 2}
}

func driftCfg() Config {
	return Config{Shape: SlowBurnDrift, Seed: 12, Duration: 10 * time.Second,
		BaseRate: 200, Channels: 4, ActionDim: 8, AudienceDim: 3, Drift: 2.0}
}

// dist measures an arrival's distance from its channel's base point, per
// block: L1 between the action probability vectors (on the simplex, where
// it is at most 2) and L2 over the raw audience features.
func dist(cfg Config, a *Arrival) (action, audience float64) {
	baseAct, baseAud := BaseFeatures(cfg, a.ChannelIndex)
	for j, v := range a.Action {
		action += math.Abs(v - baseAct[j])
	}
	for j, v := range a.Audience {
		d := v - baseAud[j]
		audience += d * d
	}
	return action, math.Sqrt(audience)
}

// blockMeans accumulates per-block displacement means.
type blockMeans struct {
	action, audience float64
	n                int
}

func (m *blockMeans) add(cfg Config, a *Arrival) {
	act, aud := dist(cfg, a)
	m.action += act
	m.audience += aud
	m.n++
}

func (m blockMeans) mean() (action, audience float64) {
	return m.action / float64(m.n), m.audience / float64(m.n)
}

func TestRaidBrigadeShape(t *testing.T) {
	cfg := raidCfg()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var inWin int
	var raid, background blockMeans
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		if a.At >= cfg.SpikeStart && a.At < cfg.SpikeStart+cfg.SpikeDur {
			inWin++
			if a.ChannelIndex == cfg.RaidTarget {
				raid.add(cfg, a)
			}
		} else {
			background.add(cfg, a)
		}
	}
	if inWin == 0 || background.n == 0 {
		t.Fatalf("degenerate schedule: %d in-window, %d outside", inWin, background.n)
	}
	// The default RaidFraction (0.8) plus the uniform 1/4 background means
	// ~85% of in-window arrivals hit the target.
	if frac := float64(raid.n) / float64(inWin); frac < 0.7 {
		t.Fatalf("only %.0f%% of in-window arrivals hit the raid target", frac*100)
	}
	// Raid arrivals are displaced by RaidOffset (1.5 default) along the raid
	// direction, background arrivals only by jitter: on both blocks the raid
	// sits several times further from the base (≈ 6× on the action
	// simplex, ≈ 11× on the audience features at this seed).
	inAct, inAud := raid.mean()
	outAct, outAud := background.mean()
	if inAct < 4*outAct || inAud < 4*outAud {
		t.Fatalf("raid displacement %.2f/%.2f (action/audience) vs background %.2f/%.2f — raid shift not applied",
			inAct, inAud, outAct, outAud)
	}
	// The rate profile matches FlashCrowd's window arithmetic.
	if got, want := cfg.RateAt(cfg.SpikeStart), cfg.PeakRate; got != want {
		t.Fatalf("in-window rate %g, want %g", got, want)
	}
	if got, want := cfg.ExpectedArrivals(), 50.0*7+400*3; math.Abs(got-want) > 1e-9 {
		t.Fatalf("ExpectedArrivals = %g, want %g", got, want)
	}
}

func TestSlowBurnDriftShape(t *testing.T) {
	cfg := driftCfg()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mean displacement grows with time: compare the first and last decile.
	var early, late blockMeans
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		switch {
		case a.At < cfg.Duration/10:
			early.add(cfg, a)
		case a.At > cfg.Duration*9/10:
			late.add(cfg, a)
		}
	}
	if early.n == 0 || late.n == 0 {
		t.Fatal("degenerate schedule")
	}
	// Drift 2.0 ⇒ the last decile sits ≈ 1.8 along each channel's drift
	// direction, the first near jitter: on both blocks it is several times
	// further from the base (≈ 6× on the action simplex, ≈ 10× on the
	// audience features at this seed).
	earlyAct, earlyAud := early.mean()
	lateAct, lateAud := late.mean()
	if lateAct < 3*earlyAct || lateAud < 3*earlyAud {
		t.Fatalf("drift not progressing: early %.3f/%.3f late %.3f/%.3f (action/audience)",
			earlyAct, earlyAud, lateAct, lateAud)
	}
	// Steady offered rate despite the drifting content.
	if got := cfg.RateAt(cfg.Duration / 2); got != cfg.BaseRate {
		t.Fatalf("drift rate %g, want steady %g", got, cfg.BaseRate)
	}
}

func TestAdversarialShapesDeterministic(t *testing.T) {
	for _, cfg := range []Config{raidCfg(), driftCfg()} {
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash() != b.Hash() {
			t.Fatalf("%v: same seed, different schedules", cfg.Shape)
		}
		cfg.Seed++
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.Hash() == a.Hash() {
			t.Fatalf("%v: different seed, same schedule", cfg.Shape)
		}
	}
}

func TestAdversarialPresets(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range PresetNames() {
		cfg, err := AdversarialPreset(name, 42, 4, 8, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := cfg.Shape.String(); got != name {
			t.Errorf("preset %s produced shape %s", name, got)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.Arrivals) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		if seen[s.Hash()] {
			t.Fatalf("%s: hash collides with another preset", name)
		}
		seen[s.Hash()] = true
	}
	if _, err := AdversarialPreset("zerg-rush", 42, 4, 8, 3); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestValidateAdversarial(t *testing.T) {
	bad := []Config{
		func() Config { c := raidCfg(); c.RaidTarget = 4; return c }(),     // target out of range
		func() Config { c := raidCfg(); c.RaidFraction = 1.5; return c }(), // fraction > 1
		func() Config { c := raidCfg(); c.SpikeDur = 0; return c }(),       // raid needs a window
		func() Config { c := driftCfg(); c.Drift = -1; return c }(),        // negative drift
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad adversarial config %d accepted: %+v", i, cfg)
		}
	}
	for _, cfg := range []Config{raidCfg(), driftCfg()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v rejected: %v", cfg.Shape, err)
		}
	}
}
