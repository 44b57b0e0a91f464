package update

import (
	"math"
	"math/rand"
	"testing"

	"aovlis/internal/core"
	"aovlis/internal/mat"
)

func testModel(t *testing.T) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig(8, 4)
	cfg.HiddenI, cfg.HiddenA = 8, 6
	cfg.SeqLen = 3
	cfg.LearningRate = 0.01
	m, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// makeSeries emits features cycling over 4 action classes starting at
// `phase`: phase 0 uses classes 0-3, phase 4 uses classes 4-7 — genuinely
// new content, i.e. the model drift the paper's update algorithm targets.
func makeSeries(rng *rand.Rand, n, d1, d2 int, phase int) (actions, audience [][]float64) {
	for t := 0; t < n; t++ {
		f := make([]float64, d1)
		f[((t/5)%4+phase)%d1] = 1
		for i := range f {
			f[i] += 0.02 + 0.01*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, d2)
		base := 0.3
		if phase != 0 {
			base = 0.8 // drifted streams carry a different engagement regime
		}
		for i := range a {
			a[i] = base + 0.1*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}
	return actions, audience
}

func makeSamples(t *testing.T, rng *rand.Rand, n, phase int) []core.Sample {
	t.Helper()
	actions, audience := makeSeries(rng, n, 8, 4, phase)
	samples, err := core.BuildSamples(actions, audience, 3)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.MaxBuffer = 0 },
		func(c *Config) { c.DriftThreshold = 2 },
		func(c *Config) { c.TrainEpochs = 0 },
		func(c *Config) { c.MergeWeight = -0.1 },
	}
	for i, mut := range cases {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Fatal("nil model accepted")
	}
}

// The sketch-based Eq. 17 must match the brute-force double sum exactly.
func TestSimilaritySketchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		dim := 2 + rng.Intn(10)
		nh, nn := 1+rng.Intn(20), 1+rng.Intn(20)
		var sh, sn [][]float64
		var a, b setSketch
		for i := 0; i < nh; i++ {
			h := make([]float64, dim)
			for j := range h {
				h[j] = rng.NormFloat64()
			}
			sh = append(sh, h)
			a.add(h)
		}
		for i := 0; i < nn; i++ {
			h := make([]float64, dim)
			for j := range h {
				h[j] = rng.NormFloat64()
			}
			sn = append(sn, h)
			b.add(h)
		}
		want := PairwiseCosineMean(sh, sn)
		got := similarity(&a, &b)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: sketch %v vs brute force %v", trial, got, want)
		}
	}
}

func TestSimilarityEdgeCases(t *testing.T) {
	var empty, one setSketch
	one.add([]float64{1, 0})
	if got := similarity(&empty, &one); got != 1 {
		t.Fatalf("empty-set similarity = %v, want 1 (no drift)", got)
	}
	var zeros setSketch
	zeros.add([]float64{0, 0})
	if got := similarity(&zeros, &one); got != 0 {
		t.Fatalf("zero-vector similarity = %v", got)
	}
	if got := PairwiseCosineMean(nil, [][]float64{{1}}); got != 1 {
		t.Fatalf("brute force empty = %v", got)
	}
}

func TestObserveBuffersOnlyLowInteraction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := testModel(t)
	cfg := DefaultConfig()
	cfg.MaxBuffer = 50
	u, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := makeSamples(t, rng, 20, 0)
	// Initial threshold T = 1: interaction 0.5 < 1 buffers; 1.5 does not.
	res, err := u.Observe(samples[0], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Buffered {
		t.Fatal("low-interaction segment not buffered")
	}
	res2, err := u.Observe(samples[1], 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Buffered {
		t.Fatal("high-interaction segment buffered")
	}
}

func TestNoDriftKeepsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := testModel(t)
	train := makeSamples(t, rng, 60, 0)
	r := rand.New(rand.NewSource(4))
	for e := 0; e < 10; e++ {
		if _, err := m.TrainEpoch(train, r); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.MaxBuffer = 20
	// The paper's τ_u = 0.4 is calibrated to its real hidden distributions;
	// at toy scale same-distribution similarity sits lower, so pick a τ_u
	// below it to exercise the keep-model path.
	cfg.DriftThreshold = 0.05
	u, _ := New(m, cfg)
	if err := u.SeedHistory(train); err != nil {
		t.Fatal(err)
	}
	before := m.Params().Clone()

	// Same-distribution incoming data: similarity should stay above τ_u.
	incoming := makeSamples(t, rng, 40, 0)
	var triggered bool
	for _, s := range incoming {
		res, err := u.Observe(s, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Triggered {
			triggered = true
			if res.DriftSim <= cfg.DriftThreshold {
				t.Fatalf("same-distribution drift sim %v below threshold %v", res.DriftSim, cfg.DriftThreshold)
			}
			if res.Updated {
				t.Fatal("model updated without drift")
			}
		}
	}
	if !triggered {
		t.Fatal("buffer never filled")
	}
	after := m.Params()
	for _, name := range after.Names() {
		a, b := before.Get(name), after.Get(name)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatal("parameters changed despite no update")
			}
		}
	}
	if u.Updates() != 0 || u.Checks() == 0 {
		t.Fatalf("updates=%d checks=%d", u.Updates(), u.Checks())
	}
}

func TestDriftTriggersUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := testModel(t)
	train := makeSamples(t, rng, 60, 0)
	r := rand.New(rand.NewSource(6))
	for e := 0; e < 10; e++ {
		if _, err := m.TrainEpoch(train, r); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.MaxBuffer = 20
	cfg.TrainEpochs = 3
	// Force the update path by accepting any similarity below 1.
	cfg.DriftThreshold = 0.999
	u, _ := New(m, cfg)
	if err := u.SeedHistory(train); err != nil {
		t.Fatal(err)
	}
	before := m.Params().Clone()

	// Shifted-distribution incoming data (different phase).
	incoming := makeSamples(t, rng, 40, 4)
	var updated bool
	for _, s := range incoming {
		res, err := u.Observe(s, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Updated {
			updated = true
		}
	}
	if !updated {
		t.Fatal("drifted stream did not update the model")
	}
	changed := false
	for _, name := range m.Params().Names() {
		a, b := before.Get(name), m.Params().Get(name)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("update did not change parameters")
	}
	if u.Updates() == 0 {
		t.Fatal("update counter not incremented")
	}
}

func TestDriftStatisticSeparatesRegimes(t *testing.T) {
	// At toy scale the *sign* of the shift in Eq. 17 depends on where the
	// untrained-input hidden states land, so we assert the robust property:
	// genuinely new content moves the statistic by a clear margin relative
	// to same-distribution content (the paper's τ_u then thresholds it).
	rng := rand.New(rand.NewSource(7))
	m := testModel(t)
	train := makeSamples(t, rng, 80, 0)
	r := rand.New(rand.NewSource(8))
	for e := 0; e < 30; e++ {
		if _, err := m.TrainEpoch(train, r); err != nil {
			t.Fatal(err)
		}
	}
	simFor := func(phase int) float64 {
		cfg := DefaultConfig()
		cfg.MaxBuffer = 30
		cfg.DriftThreshold = -1 // never update; we only read the statistic
		u, _ := New(m.Clone(), cfg)
		if err := u.SeedHistory(train); err != nil {
			t.Fatal(err)
		}
		incoming := makeSamples(t, rng, 40, phase)
		for _, s := range incoming {
			res, err := u.Observe(s, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Triggered {
				return res.DriftSim
			}
		}
		t.Fatal("never triggered")
		return 0
	}
	same := simFor(0)
	shifted := simFor(4)
	if math.Abs(shifted-same) < 0.02 {
		t.Fatalf("drift statistic does not separate regimes: same=%v shifted=%v", same, shifted)
	}
}

func TestMergeReplaceAdoptsNewModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := testModel(t)
	train := makeSamples(t, rng, 40, 0)
	cfg := DefaultConfig()
	cfg.MaxBuffer = 10
	cfg.DriftThreshold = 0.9999
	cfg.Mode = MergeReplace
	cfg.TrainEpochs = 2
	u, _ := New(m, cfg)
	if err := u.SeedHistory(train[:5]); err != nil {
		t.Fatal(err)
	}
	incoming := makeSamples(t, rng, 30, 3)
	for _, s := range incoming {
		if _, err := u.Observe(s, 0.0); err != nil {
			t.Fatal(err)
		}
	}
	if u.Updates() == 0 {
		t.Fatal("replace mode never updated")
	}
}

func TestInteractionThresholdAdapts(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := testModel(t)
	cfg := DefaultConfig()
	cfg.MaxBuffer = 10
	u, _ := New(m, cfg)
	samples := makeSamples(t, rng, 40, 0)
	if u.InteractionThreshold() != 1 {
		t.Fatalf("initial T = %v, want 1", u.InteractionThreshold())
	}
	// Feed low interactions; after a window rolls, T ≈ 0.2.
	for i := 0; i < 15; i++ {
		if _, err := u.Observe(samples[i%len(samples)], 0.2); err != nil {
			t.Fatal(err)
		}
	}
	if got := u.InteractionThreshold(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("adapted T = %v, want 0.2", got)
	}
}

// TestStateRoundTripResumesIdentically exports an updater's runtime state
// mid-stream, seeds a fresh updater (over an identical model) with it, and
// requires the two to stay in lockstep — buffer fills, drift checks and
// merge updates included. This is the updater half of the detector
// snapshot fidelity guarantee.
func TestStateRoundTripResumesIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := testModel(t)
	cfg := DefaultConfig()
	cfg.MaxBuffer = 8
	cfg.DriftThreshold = 0.9999 // drift readily: exercise applyUpdate on both sides
	cfg.TrainEpochs = 2
	u, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed := makeSamples(t, rng, 20, 0)
	if err := u.SeedHistory(seed[:6]); err != nil {
		t.Fatal(err)
	}
	stream := makeSamples(t, rng, 40, 3)
	for i := 0; i < 11; i++ {
		if _, err := u.Observe(stream[i], 0.1); err != nil {
			t.Fatal(err)
		}
	}

	st := u.State()
	m2 := m.Clone()
	u2, err := New(m2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := u2.SetState(st); err != nil {
		t.Fatal(err)
	}
	// Mutating the exported state must not leak into the restored updater
	// (SetState copies).
	if len(st.HistorySum) > 0 {
		st.HistorySum[0] = math.Inf(1)
	}

	for i := 11; i < len(stream); i++ {
		want, err := u.Observe(stream[i], 0.1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := u2.Observe(stream[i], 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("step %d diverged: %+v vs %+v", i, want, got)
		}
	}
	if u.Updates() == 0 {
		t.Fatal("stream never updated; drift path untested")
	}
	if u.Updates() != u2.Updates() || u.Checks() != u2.Checks() {
		t.Fatalf("counters diverged: %d/%d vs %d/%d", u.Updates(), u.Checks(), u2.Updates(), u2.Checks())
	}
}

func TestSetStateRejectsNegativeCounters(t *testing.T) {
	u, err := New(testModel(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*State){
		func(s *State) { s.HistoryCount = -1 },
		func(s *State) { s.IncomingCount = -1 },
		func(s *State) { s.CurWindowN = -1 },
		func(s *State) { s.Updates = -1 },
		func(s *State) { s.Checks = -1 },
	} {
		st := u.State()
		mut(&st)
		if err := u.SetState(st); err == nil {
			t.Fatal("negative counter accepted")
		}
	}
}

func TestSetStateRejectsMismatchedDimensions(t *testing.T) {
	u, err := New(testModel(t), DefaultConfig()) // model: hidden 8, q 3, dims 8/4
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	good := makeSamples(t, rng, 10, 0)
	for _, mut := range []func(*State){
		func(s *State) { s.HistorySum = make([]float64, 3) },   // wrong sketch dim
		func(s *State) { s.IncomingSum = make([]float64, 99) }, // wrong sketch dim
		func(s *State) { s.Buffer = []core.Sample{{}} },        // empty windows
		func(s *State) { b := good[0]; b.ActionSeq = b.ActionSeq[:2]; s.Buffer = []core.Sample{b} },
		func(s *State) { b := good[0]; b.ActionTarget = b.ActionTarget[:3]; s.Buffer = []core.Sample{b} },
	} {
		st := u.State()
		mut(&st)
		if err := u.SetState(st); err == nil {
			t.Fatal("mismatched state accepted")
		}
	}
	// And a consistent state (correct dims everywhere) is accepted.
	st := u.State()
	st.HistorySum = make([]float64, 8)
	st.HistoryCount = 1
	st.Buffer = good[:2]
	if err := u.SetState(st); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
}

// TestReusedTrainerMatchesFreshClone pins the trainer list's bit contract.
// A retrain takes a trainer that another updater has already trained with:
// its parameters, Adam moments, training engine and rng are all dirty. The
// merge must still land on exactly the parameters the update algorithm gets
// from a fresh Clone of the model, a fresh optimiser and a fresh rng seeded
// Seed+updates — twice in a row, the second time on the trainer this
// updater used itself.
func TestReusedTrainerMatchesFreshClone(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := testModel(t)
	r := rand.New(rand.NewSource(32))
	for e := 0; e < 3; e++ {
		if _, err := base.TrainEpoch(makeSamples(t, rng, 30, 0), r); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.MaxBuffer = 8
	cfg.DriftThreshold = 1 // every drift check retrains
	cfg.TrainEpochs = 2

	// A full buffer's worth of samples (BuildSamples keeps n − q of n).
	buffer := func(phase int) []core.Sample {
		return makeSamples(t, rng, cfg.MaxBuffer+3, phase)[:cfg.MaxBuffer]
	}

	list := new(Trainers)
	other, err := NewShared(base.Clone(), cfg, list)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range buffer(4) {
		if _, err := other.Observe(s, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if other.Updates() != 1 || list.Made() != 1 {
		t.Fatalf("dirtying run: %d updates, %d trainers made; want 1 and 1", other.Updates(), list.Made())
	}

	u, err := NewShared(base.Clone(), cfg, list)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Clone()
	for round := 0; round < 2; round++ {
		stream := buffer(3)
		fresh := want.Clone()
		shuffle := rand.New(rand.NewSource(cfg.Seed + int64(round)))
		for e := 0; e < cfg.TrainEpochs; e++ {
			if _, err := fresh.TrainEpoch(stream, shuffle); err != nil {
				t.Fatal(err)
			}
		}
		if err := want.Params().Average(fresh.Params(), 1-cfg.MergeWeight); err != nil {
			t.Fatal(err)
		}
		// Each round's interaction sits below the last round's mean, T.
		level := 0.5 - 0.1*float64(round)
		for i, s := range stream {
			res, err := u.Observe(s, level)
			if err != nil {
				t.Fatal(err)
			}
			if last := i == len(stream)-1; res.Updated != last {
				t.Fatalf("round %d segment %d: Updated = %v", round, i, res.Updated)
			}
		}
		for _, name := range want.Params().Names() {
			w, g := want.Params().Get(name).Data, u.Model().Params().Get(name).Data
			for i := range w {
				if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
					t.Fatalf("round %d: %s[%d] = %v on the reused trainer, %v from a fresh clone", round, name, i, g[i], w[i])
				}
			}
		}
	}
	if list.Made() != 1 {
		t.Fatalf("%d trainers made for retrains that never overlapped, want 1", list.Made())
	}
}

// TestWindowLogSharesOverlappingRows pins the window log: a buffered
// sample's window is a q-row view of one stream-ordered log whose rows are
// the caller's own, and the log holds each row once. A densely buffered
// cycle of n windows costs n + q − 1 rows and never grows the log past its
// first size; every other segment costs 2 rows a window; disjoint windows
// cost q rows each, at most q·MaxBuffer. The log is reused across cycles:
// a second dense cycle allocates nothing.
func TestWindowLogSharesOverlappingRows(t *testing.T) {
	const q, maxBuffer = 3, 12
	cfg := DefaultConfig()
	cfg.MaxBuffer = maxBuffer
	cfg.DriftThreshold = -1 // drift checks never retrain
	rng := rand.New(rand.NewSource(37))
	stream := makeSamples(t, rng, 200, 0)
	for _, tc := range []struct {
		name   string
		stride int
		rows   int // log length after maxBuffer−1 buffered windows
	}{
		{"dense", 1, maxBuffer - 1 + q - 1},
		{"every-other", 2, q + 2*(maxBuffer-2)},
		{"disjoint", q + 1, q * (maxBuffer - 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, err := New(testModel(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < maxBuffer-1; i++ {
				s := stream[i*tc.stride]
				if res, err := u.Observe(s, 0); err != nil || !res.Buffered {
					t.Fatalf("window %d: buffered %v, %v", i, res.Buffered, err)
				}
				b := u.buffer[i]
				for r := 0; r < q; r++ {
					if &b.ActionSeq[r][0] != &s.ActionSeq[r][0] || &b.AudienceSeq[r][0] != &s.AudienceSeq[r][0] {
						t.Fatalf("window %d row %d: the buffered sample reads another row than the caller's", i, r)
					}
				}
			}
			if len(u.actLog) != tc.rows || len(u.audLog) != tc.rows {
				t.Fatalf("the log holds %d/%d rows, want %d", len(u.actLog), len(u.audLog), tc.rows)
			}
			if c := cap(u.actLog); c > q*maxBuffer {
				t.Fatalf("the log has room for %d rows, more than the %d disjoint windows need", c, q*maxBuffer)
			}
			if tc.stride == 1 && cap(u.actLog) != maxBuffer+q-1 {
				t.Fatalf("a dense cycle grew the log to %d rows, want its first size %d", cap(u.actLog), maxBuffer+q-1)
			}
		})
	}

	u, err := New(testModel(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(from int) {
		for i := from; i < from+maxBuffer; i++ {
			// Falling interaction stays below every window's mean, T.
			res, err := u.Observe(stream[i], -float64(i))
			if err != nil {
				t.Fatal(err)
			}
			if res.Triggered != (i == from+maxBuffer-1) {
				t.Fatalf("segment %d: Triggered = %v", i, res.Triggered)
			}
		}
	}
	feed(0)
	if len(u.actLog) != 0 || len(u.buffer) != 0 {
		t.Fatalf("a drift check left %d log rows and %d samples", len(u.actLog), len(u.buffer))
	}
	from := maxBuffer
	if n := testing.AllocsPerRun(3, func() {
		feed(from)
		from += maxBuffer
	}); n != 0 {
		t.Fatalf("a dense cycle on a reused log allocates %v times, want 0", n)
	}
}

// TestObserveHiddenMatchesObserve pins the handover: an updater given each
// buffered window's hidden state by its caller buffers, checks drift and
// retrains exactly as one that computes the states itself, and ends with
// the same parameters; a state of the wrong size is refused.
func TestObserveHiddenMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := testModel(t)
	cfg := DefaultConfig()
	cfg.MaxBuffer = 10
	cfg.DriftThreshold = 1
	cfg.TrainEpochs = 1
	plain, err := New(base.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	handed, err := New(base.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(makeSamples(t, rng, 40, 0), makeSamples(t, rng, 40, 4)...)
	hidden := make([]float64, base.Config().HiddenI)
	updates := 0
	for i, s := range stream {
		level := 0.5 - 0.001*float64(i)
		want, err := plain.Observe(s, level)
		if err != nil {
			t.Fatal(err)
		}
		if err := handed.Model().HiddenInto(&s, hidden); err != nil {
			t.Fatal(err)
		}
		got, err := handed.ObserveHidden(s, level, hidden)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("segment %d: %+v handed the state, %+v computing it", i, got, want)
		}
		if got.Updated {
			updates++
		}
	}
	if updates < 2 {
		t.Fatalf("%d retrains; the stream must retrain at least twice", updates)
	}
	for _, name := range plain.Model().Params().Names() {
		w, g := plain.Model().Params().Get(name).Data, handed.Model().Params().Get(name).Data
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
				t.Fatalf("%s[%d] = %v handed the states, %v computing them", name, i, g[i], w[i])
			}
		}
	}
	if _, err := handed.ObserveHidden(stream[0], 0, hidden[1:]); err == nil {
		t.Fatal("a hidden state of the wrong size was accepted")
	}
}
