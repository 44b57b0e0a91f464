package loadgen

import (
	"math"
	"testing"
	"time"
)

func steadyCfg() Config {
	return Config{Shape: Steady, Seed: 1, Duration: 10 * time.Second,
		BaseRate: 200, Channels: 4, ActionDim: 8, AudienceDim: 3}
}

func flashCfg() Config {
	return Config{Shape: FlashCrowd, Seed: 3, Duration: 10 * time.Second,
		BaseRate: 50, PeakRate: 500, SpikeStart: 4 * time.Second,
		SpikeDur: 2 * time.Second, Channels: 4, ActionDim: 8, AudienceDim: 3}
}

func TestValidate(t *testing.T) {
	for _, cfg := range []Config{steadyCfg(), flashCfg()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v rejected: %v", cfg.Shape, err)
		}
	}
	bad := []Config{
		{},
		{Shape: Steady, Duration: time.Second, BaseRate: -1, Channels: 1, ActionDim: 1, AudienceDim: 1},
		{Shape: FlashCrowd, Duration: time.Second, BaseRate: 10, PeakRate: 5, SpikeDur: 100 * time.Millisecond,
			Channels: 1, ActionDim: 1, AudienceDim: 1}, // peak below base
		{Shape: FlashCrowd, Duration: time.Second, BaseRate: 10, PeakRate: 20, Channels: 1, ActionDim: 1, AudienceDim: 1}, // no spike window
		{Shape: FlashCrowd, Duration: time.Second, BaseRate: 10, PeakRate: 20, SpikeStart: 800 * time.Millisecond,
			SpikeDur: 400 * time.Millisecond, Channels: 1, ActionDim: 1, AudienceDim: 1}, // window past end
		{Shape: Steady, Duration: time.Second, BaseRate: 10, Channels: 0, ActionDim: 1, AudienceDim: 1},
		{Shape: Steady, Duration: time.Second, BaseRate: 10, Channels: 1, ActionDim: 0, AudienceDim: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// TestSeedReproducible pins the determinism contract: same config + seed ⇒
// bit-identical schedule (hash equality over times, channels and
// features); a different seed ⇒ a different stream.
func TestSeedReproducible(t *testing.T) {
	for _, cfg := range []Config{steadyCfg(), flashCfg()} {
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash() != b.Hash() {
			t.Fatalf("%v: same seed produced different schedules", cfg.Shape)
		}
		if len(a.Arrivals) != len(b.Arrivals) {
			t.Fatalf("%v: lengths differ: %d vs %d", cfg.Shape, len(a.Arrivals), len(b.Arrivals))
		}
		cfg2 := cfg
		cfg2.Seed++
		c, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash() == c.Hash() {
			t.Fatalf("%v: different seeds produced identical schedules", cfg.Shape)
		}
	}
}

// TestOfferedLoadAccuracy checks the thinning sampler against the profile
// integral: the realised arrival count is Poisson(ExpectedArrivals), so 5
// standard deviations is a comfortably deterministic tolerance for fixed
// seeds.
func TestOfferedLoadAccuracy(t *testing.T) {
	for _, cfg := range []Config{steadyCfg(), flashCfg()} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := cfg.ExpectedArrivals()
		tol := 5 * math.Sqrt(want)
		if got := float64(len(s.Arrivals)); math.Abs(got-want) > tol {
			t.Fatalf("%v: %v arrivals, want %v ± %v", cfg.Shape, got, want, tol)
		}
	}
}

// TestScheduleInvariants: times sorted within [0, Duration), channels in
// range, features sized and finite, action features probability vectors.
func TestScheduleInvariants(t *testing.T) {
	for _, cfg := range []Config{steadyCfg(), flashCfg(), raidCfg(), driftCfg()} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var prev time.Duration
		for i := range s.Arrivals {
			a := &s.Arrivals[i]
			if a.At < prev || a.At >= cfg.Duration {
				t.Fatalf("%v: arrival %d at %v out of order or range", cfg.Shape, i, a.At)
			}
			prev = a.At
			if a.ChannelIndex < 0 || a.ChannelIndex >= cfg.Channels || a.Channel != ChannelID(a.ChannelIndex) {
				t.Fatalf("%v: arrival %d channel %q/%d", cfg.Shape, i, a.Channel, a.ChannelIndex)
			}
			if len(a.Action) != cfg.ActionDim || len(a.Audience) != cfg.AudienceDim {
				t.Fatalf("%v: arrival %d dims %d/%d", cfg.Shape, i, len(a.Action), len(a.Audience))
			}
			for _, v := range append(append([]float64(nil), a.Action...), a.Audience...) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%v: arrival %d has non-finite feature", cfg.Shape, i)
				}
			}
			var sum float64
			for _, v := range a.Action {
				if v < 0 {
					t.Fatalf("%v: arrival %d has negative action mass %v", cfg.Shape, i, v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("%v: arrival %d action features sum to %v, want 1", cfg.Shape, i, sum)
			}
		}
	}
}

// countIn counts arrivals inside [from, to).
func countIn(s *Schedule, from, to time.Duration) int {
	n := 0
	for i := range s.Arrivals {
		if s.Arrivals[i].At >= from && s.Arrivals[i].At < to {
			n++
		}
	}
	return n
}

// TestFlashCrowdShape: the realised rate inside the spike window must be
// several times the rate outside it, and RateAt must agree with the window
// edges exactly.
func TestFlashCrowdShape(t *testing.T) {
	cfg := flashCfg()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spikeEnd := cfg.SpikeStart + cfg.SpikeDur
	inside := float64(countIn(s, cfg.SpikeStart, spikeEnd)) / cfg.SpikeDur.Seconds()
	outside := float64(countIn(s, 0, cfg.SpikeStart)+countIn(s, spikeEnd, cfg.Duration)) /
		(cfg.Duration - cfg.SpikeDur).Seconds()
	if inside < 5*outside {
		t.Fatalf("flash crowd inside rate %.1f/s vs outside %.1f/s, want ≥ 5×", inside, outside)
	}
	if cfg.RateAt(cfg.SpikeStart-time.Nanosecond) != cfg.BaseRate ||
		cfg.RateAt(cfg.SpikeStart) != cfg.PeakRate ||
		cfg.RateAt(spikeEnd-time.Nanosecond) != cfg.PeakRate ||
		cfg.RateAt(spikeEnd) != cfg.BaseRate {
		t.Fatal("RateAt disagrees with spike window edges")
	}
}

// TestBaseFeatures: the exported per-channel training template matches the
// pattern arrivals jitter around — every arrival feature must sit within a
// few jitter standard deviations of its channel's base.
func TestBaseFeatures(t *testing.T) {
	cfg := steadyCfg()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bases := make([][2][]float64, cfg.Channels)
	for i := 0; i < cfg.Channels; i++ {
		act, aud := BaseFeatures(cfg, i)
		bases[i] = [2][]float64{act, aud}
	}
	const maxDev = 6 * 0.05 // 6σ of the default jitter
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		for j, v := range a.Action {
			if math.Abs(v-bases[a.ChannelIndex][0][j]) > maxDev {
				t.Fatalf("arrival %d action[%d] %.3f too far from base %.3f", i, j, v, bases[a.ChannelIndex][0][j])
			}
		}
		for j, v := range a.Audience {
			if math.Abs(v-bases[a.ChannelIndex][1][j]) > maxDev {
				t.Fatalf("arrival %d audience[%d] %.3f too far from base %.3f", i, j, v, bases[a.ChannelIndex][1][j])
			}
		}
	}
}

// TestReplayPacing replays a short schedule and checks open-loop pacing:
// total replay time is at least the last arrival offset and submissions
// arrive in order.
func TestReplayPacing(t *testing.T) {
	cfg := Config{Shape: Steady, Seed: 7, Duration: 200 * time.Millisecond,
		BaseRate: 500, Channels: 2, ActionDim: 2, AudienceDim: 2}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Arrivals) == 0 {
		t.Fatal("empty schedule")
	}
	var got []time.Duration
	start := time.Now()
	s.Replay(func(a Arrival) { got = append(got, a.At) })
	elapsed := time.Since(start)
	last := s.Arrivals[len(s.Arrivals)-1].At
	if elapsed < last {
		t.Fatalf("replay finished in %v, before last arrival at %v", elapsed, last)
	}
	if len(got) != len(s.Arrivals) {
		t.Fatalf("replayed %d of %d arrivals", len(got), len(s.Arrivals))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("replay out of order")
		}
	}
}

func TestShapeString(t *testing.T) {
	if Steady.String() != "steady" || SlowBurnDrift.String() != "slow-burn-drift" ||
		FlashCrowd.String() != "flash-crowd" || Shape(9).String() != "Shape(9)" {
		t.Fatal("Shape.String mismatch")
	}
}
