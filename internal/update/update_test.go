package update

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"aovlis/internal/core"
	"aovlis/internal/mat"
)

func testModel(t testing.TB) *core.Model {
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

func makeSamples(t testing.TB, rng *rand.Rand, n, phase int) []core.Sample {
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

// PairwiseCosineMean is the brute-force Eq. 17 reference the sketch's
// similarity is checked against.
func PairwiseCosineMean(sh, sn [][]float64) float64 {
	if len(sh) == 0 || len(sn) == 0 {
		return 1
	}
	var total float64
	for _, a := range sh {
		for _, b := range sn {
			total += vecCosine(a, b)
		}
	}
	return total / (float64(len(sh)) * float64(len(sn)))
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

// TestLegacyBufferRestoresThroughTheLog pins the version 1/2 restore path:
// a Buffer of samples with rows of their own is appended to the log as if
// the samples were observed again, so the restored updater holds the log,
// offsets and end an updater that observed them holds, and resumes
// identically.
func TestLegacyBufferRestoresThroughTheLog(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cfg := DefaultConfig()
	cfg.MaxBuffer = 12
	cfg.DriftThreshold = 1
	cfg.TrainEpochs = 1
	m := testModel(t)
	live, err := New(m.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := makeSamples(t, rng, 40, 0)
	var legacy State
	for i, s := range stream[:cfg.MaxBuffer-1] {
		// Every third segment is not buffered: its rows still join the
		// log, as the next buffered window's.
		level := 0.0
		if i%3 == 2 {
			level = 2
		}
		res, err := live.Observe(s, level)
		if err != nil {
			t.Fatal(err)
		}
		if res.Buffered {
			legacy.Buffer = append(legacy.Buffer, s)
		}
	}
	want := live.State()
	legacy.HistorySum, legacy.HistoryCount = want.HistorySum, want.HistoryCount
	legacy.IncomingSum, legacy.IncomingCount = want.IncomingSum, want.IncomingCount
	legacy.PrevWindowMean, legacy.CurWindowSum, legacy.CurWindowN = want.PrevWindowMean, want.CurWindowSum, want.CurWindowN
	restored, err := New(m.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.SetState(legacy); err != nil {
		t.Fatal(err)
	}
	got := restored.State()
	if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Log, want.Log) || got.LogEnd != want.LogEnd {
		t.Fatalf("a version 2 buffer restores to %d offsets over %d values ending at %d, the live updater holds %d over %d ending at %d",
			len(got.Offsets), len(got.Log), got.LogEnd, len(want.Offsets), len(want.Log), want.LogEnd)
	}
	if rows := 3 + cfg.MaxBuffer - 1; len(want.Log) != 12*rows {
		t.Fatalf("the live log holds %d values, want each of the stream's %d rows once", len(want.Log), rows)
	}
	for i, s := range stream[cfg.MaxBuffer-1:] {
		w, err := live.Observe(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		g, err := restored.Observe(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if w != g {
			t.Fatalf("segment %d: %+v restored, %+v live", i, g, w)
		}
	}
	if live.Updates() == 0 {
		t.Fatal("no retrain: the resumed buffers went untrained")
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
	mcfg := testModel(t).Config()
	// A seed no other test's model has, so the configuration's trainer list
	// starts empty.
	mcfg.Seed = 31
	base, err := core.NewModel(mcfg)
	if err != nil {
		t.Fatal(err)
	}
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

	other, err := New(base.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range buffer(4) {
		if _, err := other.Observe(s, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if other.Updates() != 1 || TrainersMade(mcfg) != 1 {
		t.Fatalf("dirtying run: %d updates, %d trainers made; want 1 and 1", other.Updates(), TrainersMade(mcfg))
	}

	u, err := New(base.Clone(), cfg)
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
	if made := TrainersMade(mcfg); made != 1 {
		t.Fatalf("%d trainers made for retrains that never overlapped, want 1", made)
	}
	// A listed trainer holds no updater's log: its views are cleared.
	list := trainerLists.For(mcfg)
	tr := list.Take()
	if tr == nil {
		t.Fatal("the retrains left no trainer on the list")
	}
	defer list.Put(tr)
	if len(tr.samples) == 0 || slices.ContainsFunc(tr.act[:cap(tr.act)], func(r []float64) bool { return r != nil }) ||
		slices.ContainsFunc(tr.samples[:cap(tr.samples)], func(s core.Sample) bool { return s.ActionSeq != nil }) {
		t.Fatal("a trainer back on the list still views the log it retrained on")
	}
}

// TestWindowLogSharesOverlappingRows pins the log: a buffered sample is an
// offset into one stream-ordered log of rows the updater owns, copied from
// the caller's, and the log holds each row once. A sample's rows are found
// by its stream position and shared when the log's tail holds their bits.
// A densely buffered cycle of n samples costs n + q rows; every other
// segment costs 2 rows a sample; disjoint windows cost q + 1 rows each.
// Each log spans several chunks and holds at most one chunk of slack, and
// the dense and every-other logs hold windows that straddle two chunks. The
// caller's rows are poisoned with NaN after each Observe, and every
// buffered sample, as the retrain sees it, must still hold the bits it was
// given. Rows are shared by their bits, so a −0 is not taken for a 0. A
// drift check puts the chunks back, and the next cycle takes them again: a
// second dense cycle allocates nothing.
func TestWindowLogSharesOverlappingRows(t *testing.T) {
	const q, maxBuffer = 3, 40
	cfg := DefaultConfig()
	cfg.MaxBuffer = maxBuffer
	cfg.DriftThreshold = -1 // drift checks never retrain
	rng := rand.New(rand.NewSource(37))
	stream := makeSamples(t, rng, 260, 0)
	sameBits := func(a, b []float64) bool {
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	copySample := func(s core.Sample) core.Sample {
		rows := func(seq [][]float64) [][]float64 {
			out := make([][]float64, len(seq))
			for t, r := range seq {
				out[t] = append([]float64(nil), r...)
			}
			return out
		}
		s.ActionSeq, s.AudienceSeq = rows(s.ActionSeq), rows(s.AudienceSeq)
		s.ActionTarget = append([]float64(nil), s.ActionTarget...)
		s.AudienceTarget = append([]float64(nil), s.AudienceTarget...)
		return s
	}
	poison := func(s core.Sample) {
		for _, r := range append(append(s.ActionSeq, s.AudienceSeq...), s.ActionTarget, s.AudienceTarget) {
			for j := range r {
				r[j] = math.NaN()
			}
		}
	}
	for _, tc := range []struct {
		name   string
		stride int
		rows   int // log length after maxBuffer−1 buffered samples
	}{
		{"dense", 1, maxBuffer - 1 + q},
		{"every-other", 2, q + 1 + 2*(maxBuffer-2)},
		{"disjoint", q + 1, (q + 1) * (maxBuffer - 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, err := New(testModel(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < maxBuffer-1; i++ {
				s := copySample(stream[i*tc.stride])
				if res, err := u.Observe(s, 0); err != nil || !res.Buffered {
					t.Fatalf("window %d: buffered %v, %v", i, res.Buffered, err)
				}
				poison(s)
				for j, b := range new(trainer).views(u) {
					want := stream[j*tc.stride]
					for r := 0; r < q; r++ {
						if !sameBits(b.ActionSeq[r], want.ActionSeq[r]) || !sameBits(b.AudienceSeq[r], want.AudienceSeq[r]) {
							t.Fatalf("after window %d, window %d row %d does not hold the bits it was given", i, j, r)
						}
					}
					if !sameBits(b.ActionTarget, want.ActionTarget) || !sameBits(b.AudienceTarget, want.AudienceTarget) {
						t.Fatalf("after window %d, window %d's target does not hold the bits it was given", i, j)
					}
				}
			}
			if u.rows != tc.rows {
				t.Fatalf("the log holds %d rows, want %d", u.rows, tc.rows)
			}
			if slack := len(u.chunks)*chunkRows - u.rows; len(u.chunks) < 2 || slack < 0 || slack >= chunkRows {
				t.Fatalf("%d rows in %d chunks of %d: want several chunks and at most one chunk of slack", u.rows, len(u.chunks), chunkRows)
			}
			straddles := slices.ContainsFunc(u.offsets, func(o int) bool { return o/chunkRows != (o+q)/chunkRows })
			if straddles != (tc.stride <= q) {
				t.Fatalf("a window straddles two chunks: %v, want %v", straddles, tc.stride <= q)
			}
		})
	}

	t.Run("signed-zero", func(t *testing.T) {
		u, err := New(testModel(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		first, next := copySample(stream[0]), copySample(stream[1])
		first.ActionSeq[1][0] = 0
		next.ActionSeq[0][0] = math.Copysign(0, -1)
		for _, s := range []core.Sample{first, next} {
			if res, err := u.Observe(s, 0); err != nil || !res.Buffered {
				t.Fatalf("buffered %v, %v", res.Buffered, err)
			}
		}
		if u.rows != 2*(q+1) || !math.Signbit(new(trainer).views(u)[1].ActionSeq[0][0]) {
			t.Fatalf("a window whose first row holds −0 shared the log's 0: %d log rows, want %d", u.rows, 2*(q+1))
		}
	})

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
	if u.rows != 0 || len(u.offsets) != 0 || slices.ContainsFunc(u.chunks[:cap(u.chunks)], func(c *chunk) bool { return c != nil }) {
		t.Fatalf("a drift check left %d log rows, %d samples or a chunk", u.rows, len(u.offsets))
	}
	from := maxBuffer
	if n := testing.AllocsPerRun(3, func() {
		feed(from)
		from += maxBuffer
	}); n != 0 {
		t.Fatalf("a dense cycle on a reused log allocates %v times, want 0", n)
	}
}

// TestSetStateRejectsHostileLog feeds SetState logs and offsets no updater
// writes — offsets past the log or going backwards, a log of partial rows
// or longer than a cycle of disjoint windows — and requires an error for
// each, never a panic; the state they were cut from restores and reads
// back as it was written.
func TestSetStateRejectsHostileLog(t *testing.T) {
	const q = 3
	cfg := DefaultConfig()
	cfg.MaxBuffer = 4
	u, err := New(testModel(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	samples := makeSamples(t, rng, 10, 0)
	for _, s := range samples[:3] {
		if _, err := u.Observe(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	good := u.State()
	if len(good.Offsets) != 3 || len(good.Log) != 12*(q+3) {
		t.Fatalf("fixture: %d offsets over %d values, want 3 over %d", len(good.Offsets), len(good.Log), 12*(q+3))
	}
	width := 12 // ActionDim + AudienceDim
	for _, tc := range []struct {
		name string
		mut  func(*State)
	}{
		{"offset past the log", func(s *State) { s.Offsets = []int{0, 1, 3} }},
		{"offset far past the log", func(s *State) { s.Offsets = []int{0, 1, math.MaxInt} }},
		{"negative offset", func(s *State) { s.Offsets = []int{-1, 0, 1} }},
		{"offsets going backwards", func(s *State) { s.Offsets = []int{0, 2, 1} }},
		{"offsets without a log", func(s *State) { s.Log = nil }},
		{"partial row", func(s *State) { s.Log = s.Log[:len(s.Log)-1] }},
		{"log past a cycle of disjoint windows", func(s *State) {
			s.Log = make([]float64, width*((q+1)*cfg.MaxBuffer+1))
		}},
		{"version 2 buffer longer than MaxBuffer", func(s *State) {
			s.Log, s.Offsets, s.LogEnd = nil, nil, 0
			for i := 0; i <= cfg.MaxBuffer; i++ {
				s.Buffer = append(s.Buffer, samples[i])
			}
		}},
	} {
		st := u.State()
		tc.mut(&st)
		if err := u.SetState(st); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := u.SetState(good); err != nil {
		t.Fatalf("the state it wrote is refused: %v", err)
	}
	if got := u.State(); !slices.Equal(got.Offsets, good.Offsets) || !slices.Equal(got.Log, good.Log) || got.LogEnd != good.LogEnd {
		t.Fatal("a restored state reads back other offsets, rows or end than it was written with")
	}
}

// TestObserveHiddenMatchesObserve pins the handover: an updater given each
// buffered window's hidden state by its caller buffers, checks drift and
// retrains exactly as one that computes the states itself, and ends with
// the same parameters; a state of the wrong size, or a sample it could not
// train on, is refused.
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
	// The updater copies a buffered sample into rows of the model's dims,
	// so a sample it could not train on is refused, not zero-filled.
	untargeted := stream[0]
	untargeted.AudienceTarget = nil
	if _, err := handed.ObserveHidden(untargeted, -1, hidden); err == nil {
		t.Fatal("a sample without an audience target was buffered")
	}
}

// vecCosine returns the cosine similarity between a and b, or 0 when
// either has zero norm.
func vecCosine(a, b []float64) float64 {
	na, nb := mat.VecNorm2(a), mat.VecNorm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return mat.VecDot(a, b) / (na * nb)
}

// TestChunksMadeBoundedByRowsHeld pins the chunk list: updaters of one
// configuration, each observed in turn and drift-checking at its own
// moments, take their logs' chunks from one list and put them back at each
// drift check, after its retrain. The list makes a chunk only when every
// chunk it made is held, so the chunks ever made are the most held at once,
// never more than the rows held at once plus one chunk per updater, and
// the later cycles run on the chunks the first ones made. The updaters put
// their last chunks back at the end, so a rerun (-count) starts from a list
// that holds every chunk it made.
func TestChunksMadeBoundedByRowsHeld(t *testing.T) {
	mcfg := testModel(t).Config()
	// A seed no other test's model has, so no other test takes or makes
	// the configuration's chunks.
	mcfg.Seed = 59
	base, err := core.NewModel(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxBuffer = 40
	cfg.DriftThreshold = 1 // every drift check retrains
	cfg.TrainEpochs = 1
	const cycles = 6
	strides := []int{1, 2, 4} // dense, every other, disjoint
	stream := makeSamples(t, rand.New(rand.NewSource(59)), 4*cfg.MaxBuffer*(cycles+1), 0)
	list := chunkLists.For(mcfg)
	made0 := list.Made()
	ups := make([]*Updater, len(strides))
	at := make([]int, len(strides))
	observe := func(j int) {
		s := stream[at[j]*strides[j]]
		// Falling interaction stays below every window's mean, T.
		if res, err := ups[j].Observe(s, -float64(at[j])); err != nil || !res.Buffered {
			t.Fatalf("updater %d, segment %d: buffered %v, %v", j, at[j], res.Buffered, err)
		}
		at[j]++
	}
	for j := range ups {
		if ups[j], err = New(base.Clone(), cfg); err != nil {
			t.Fatal(err)
		}
		// A head start of its own, so no two updaters check drift together.
		for i := 0; i < 13*j; i++ {
			observe(j)
		}
	}
	peakRows, peakChunks, taken := 0, 0, 0
	for step := 0; step < cycles*cfg.MaxBuffer; step++ {
		for j, u := range ups {
			before := len(u.chunks)
			observe(j)
			taken += max(len(u.chunks)-before, 0)
			rows, chunks := 0, 0
			for _, u := range ups {
				rows, chunks = rows+u.rows, chunks+len(u.chunks)
			}
			peakRows, peakChunks = max(peakRows, rows), max(peakChunks, chunks)
		}
	}
	made := list.Made()
	for j, u := range ups {
		if u.Checks() < cycles || u.Updates() != u.Checks() {
			t.Fatalf("updater %d ran %d drift checks and %d retrains, want at least %d of each", j, u.Checks(), u.Updates(), cycles)
		}
		u.release()
	}
	t.Logf("%d chunks made (%d before), %d taken; at most %d rows and %d chunks held at once", made, made0, taken, peakRows, peakChunks)
	if made != max(made0, peakChunks) || peakChunks*chunkRows >= peakRows+len(ups)*chunkRows {
		t.Fatalf("%d chunks made: want the %d held at once, fewer than %d rows' worth plus one each", made, peakChunks, peakRows)
	}
	if taken < 3*made {
		t.Fatalf("%d chunks taken over %d cycles from %d made: the cycles do not reuse them", taken, cycles, made)
	}
}

// TestConcurrentUpdatersMatchSerial runs updating clones of one model on
// goroutines of their own at once, as a pool's shards run their channels:
// they take and put back chunks and trainers on the same lists, and each
// must still end bit for bit where it ends when run alone — the same
// results, drift checks and merged weights.
func TestConcurrentUpdatersMatchSerial(t *testing.T) {
	base := testModel(t)
	cfg := DefaultConfig()
	cfg.MaxBuffer = 40
	cfg.DriftThreshold = 1
	cfg.TrainEpochs = 1
	streams := make([][]core.Sample, 4)
	for j := range streams {
		rng := rand.New(rand.NewSource(int64(61 + j)))
		streams[j] = append(makeSamples(t, rng, 90, 0), makeSamples(t, rng, 90, 4)...)
	}
	run := func(j int) ([]Result, *core.Model, error) {
		u, err := New(base.Clone(), cfg)
		if err != nil {
			return nil, nil, err
		}
		var results []Result
		for i, s := range streams[j] {
			// Every (j+2)-th segment rises above T and is not buffered.
			level := -float64(i)
			if i%(j+2) == 0 {
				level = 1
			}
			res, err := u.Observe(s, level)
			if err != nil {
				return nil, nil, err
			}
			results = append(results, res)
		}
		return results, u.Model(), nil
	}
	type outcome struct {
		results []Result
		model   *core.Model
		err     error
	}
	serial, concurrent := make([]outcome, len(streams)), make([]outcome, len(streams))
	for j := range serial {
		serial[j].results, serial[j].model, serial[j].err = run(j)
	}
	var wg sync.WaitGroup
	for j := range concurrent {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			concurrent[j].results, concurrent[j].model, concurrent[j].err = run(j)
		}(j)
	}
	wg.Wait()
	for j := range serial {
		want, got := serial[j], concurrent[j]
		if want.err != nil || got.err != nil {
			t.Fatalf("stream %d: %v alone, %v concurrently", j, want.err, got.err)
		}
		if !slices.Equal(want.results, got.results) {
			t.Fatalf("stream %d: the results differ concurrently", j)
		}
		if !slices.ContainsFunc(want.results, func(r Result) bool { return r.Updated }) {
			t.Fatalf("stream %d never retrained; the test would pass vacuously", j)
		}
		for _, name := range want.model.Params().Names() {
			w, g := want.model.Params().Get(name).Data, got.model.Params().Get(name).Data
			for i := range w {
				if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
					t.Fatalf("stream %d: %s[%d] = %v concurrently, %v alone", j, name, i, g[i], w[i])
				}
			}
		}
	}
}
