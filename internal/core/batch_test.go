package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Property suite for the lanes of the inference engine: for random models
// across every coupling mode and lane counts 1..B, one Run(B) must give
// every lane the bits a one-lane run gives it, and the one-lane run the
// bits of the reference tape — on the fresh model, after online Adam steps
// have written the parameters the plan reads, and after an explicit
// parameter copy.

// randomBatchConfig draws a small random architecture.
func randomBatchConfig(rng *rand.Rand, coupling Coupling) Config {
	cfg := DefaultConfig(3+rng.Intn(10), 2+rng.Intn(9))
	cfg.HiddenI = 2 + rng.Intn(11)
	cfg.HiddenA = 2 + rng.Intn(7)
	cfg.SeqLen = 2 + rng.Intn(4)
	cfg.Coupling = coupling
	cfg.Seed = rng.Int63()
	return cfg
}

// compareBatch checks PredictBatchInto(samples) against per-sample
// PredictInto, and that against the reference tape, elementwise on float
// bits.
func compareBatch(t *testing.T, m *Model, samples []Sample, phase string) {
	t.Helper()
	B := len(samples)
	fhats := make([][]float64, B)
	ahats := make([][]float64, B)
	for i := range samples {
		fhats[i] = make([]float64, m.cfg.ActionDim)
		ahats[i] = make([]float64, m.cfg.AudienceDim)
	}
	if err := m.PredictBatchInto(samples, fhats, ahats); err != nil {
		t.Fatalf("%s: batch predict: %v", phase, err)
	}
	fhat := make([]float64, m.cfg.ActionDim)
	ahat := make([]float64, m.cfg.AudienceDim)
	fTape := make([]float64, m.cfg.ActionDim)
	aTape := make([]float64, m.cfg.AudienceDim)
	for i := range samples {
		if err := m.PredictInto(&samples[i], fhat, ahat); err != nil {
			t.Fatalf("%s: single predict sample %d: %v", phase, i, err)
		}
		if !identicalBits(fhat, fhats[i]) || !identicalBits(ahat, ahats[i]) {
			t.Fatalf("%s: B=%d sample %d: one lane %x/%x, batch %x/%x", phase, B, i,
				bitsOf(fhat), bitsOf(ahat), bitsOf(fhats[i]), bitsOf(ahats[i]))
		}
		if err := m.predictTapeInto(&samples[i], fTape, aTape); err != nil {
			t.Fatalf("%s: tape predict sample %d: %v", phase, i, err)
		}
		if !identicalBits(fhat, fTape) || !identicalBits(ahat, aTape) {
			t.Fatalf("%s: sample %d: one lane %x/%x, tape %x/%x", phase, i,
				bitsOf(fhat), bitsOf(ahat), bitsOf(fTape), bitsOf(aTape))
		}
	}
}

func bitsOf(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestPredictBatchBitIdentical is the lane property test: lane counts 1..9
// all go through the one Run(lanes).
func TestPredictBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const maxB = 9
	for _, coupling := range []Coupling{CouplingFull, CouplingOneWay, CouplingNone} {
		for trial := 0; trial < 4; trial++ {
			cfg := randomBatchConfig(rng, coupling)
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			actions, audience := goldenSeries(cfg.SeqLen+maxB+12, cfg.ActionDim, cfg.AudienceDim, rng.Int63())
			samples, err := BuildSamples(actions, audience, cfg.SeqLen)
			if err != nil {
				t.Fatal(err)
			}
			for B := 1; B <= maxB; B++ {
				compareBatch(t, m, samples[:B], "fresh")
			}
			// Online Adam steps write the parameters; every lane must see
			// the written weights.
			for s := 0; s < 4; s++ {
				if _, err := m.TrainStep(&samples[s]); err != nil {
					t.Fatal(err)
				}
				compareBatch(t, m, samples[s:s+maxB], "after-train-step")
			}
			// Copy-replace (the updater's merge commit path) is a distinct
			// version bump; cover it explicitly.
			m2, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Params().CopyFrom(m2.Params()); err != nil {
				t.Fatal(err)
			}
			compareBatch(t, m, samples[:maxB], "after-copy")
		}
	}
}

// laneBytes is the size of a lane set's state: every float64 backing array
// at full capacity.
func laneBytes(ls *Lanes) int {
	n := 0
	for i := range ls.streams {
		for _, m := range ls.streams[i].matrices() {
			n += 8 * cap(m.Data)
		}
	}
	return n
}

// unsharedSeeds numbers the seeds unsharedConfig hands out.
var unsharedSeeds atomic.Int64

// unsharedConfig returns cfg with a seed no other model of the test process
// has used, so its lane-set list starts empty however the tests are
// ordered or repeated.
func unsharedConfig(cfg Config) Config {
	cfg.Seed = math.MinInt64 + unsharedSeeds.Add(1)
	return cfg
}

// freeSets returns the sets on cfg's free list.
func freeSets(cfg Config) []*Lanes {
	l := laneLists.For(cfg)
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*Lanes(nil), l.free...)
}

// TestUnrunModelsRegisterNothing pins when a configuration joins
// laneLists: a model made, cloned or loaded and dropped without running
// leaves no list behind, so a process that decodes foreign snapshots and
// refuses them keeps nothing of theirs; the first run registers the list,
// and a clone of a model that ran reaches the same one.
func TestUnrunModelsRegisterNothing(t *testing.T) {
	configs := func() int {
		laneLists.mu.Lock()
		defer laneLists.mu.Unlock()
		return len(laneLists.lists)
	}
	cfg := unsharedConfig(randomBatchConfig(rand.New(rand.NewSource(97)), CouplingFull))
	before := configs()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := m.SaveRuntime(&b); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&b)
	if err != nil {
		t.Fatal(err)
	}
	clone := loaded.Clone()
	if got := configs(); got != before {
		t.Fatalf("made, saved, loaded and cloned unrun, the models registered %d configurations", got-before)
	}
	m.TakeLanes().Put()
	if got := configs(); got != before+1 {
		t.Fatalf("the first run registered %d configurations, want 1", got-before)
	}
	ls := m.Clone().TakeLanes()
	defer ls.Put()
	if ls.list != laneLists.For(cfg) || clone.laneList() != ls.list {
		t.Fatal("models of one configuration borrow from different lists")
	}
}

// TestPlanLaneCapacity pins the capacity contract of the borrowed lane
// sets: a set starts with one lane of state, and models that only ever
// predict single segments — every serving channel that never batches —
// leave their configuration exactly that one set; a set grows to the
// widest batch any borrower ran, and once grown, every width up to it
// (16 → 1 included) runs allocation-free and without cross-lane bleed, for
// every model of the configuration. A set made later, while that one is
// held — a second shard's — is made as wide at once.
func TestPlanLaneCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cfg := unsharedConfig(randomBatchConfig(rng, CouplingFull))
	tmpl, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	actions, audience := goldenSeries(cfg.SeqLen+20, cfg.ActionDim, cfg.AudienceDim, 5)
	samples, err := BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	fhats := make([][]float64, 16)
	ahats := make([][]float64, 16)
	for i := range fhats {
		fhats[i] = make([]float64, cfg.ActionDim)
		ahats[i] = make([]float64, cfg.AudienceDim)
	}

	// One lane: h, c, hNext, cNext per stream, one context row, 4·H
	// preactivations, the decoded row and its preactivations.
	ctxI, ctxA := cfg.ctxDims()
	oneLane := 8 * (4*cfg.HiddenI + ctxI + 4*cfg.HiddenI + 2*cfg.ActionDim +
		4*cfg.HiddenA + ctxA + 4*cfg.HiddenA + 2*cfg.AudienceDim)
	m, other := tmpl.Clone(), tmpl.Clone()
	for i := 0; i < 5; i++ {
		for _, c := range []*Model{m, other} {
			if err := c.PredictInto(&samples[i], fhats[0], ahats[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sets := freeSets(cfg); len(sets) != 1 || sets[0].capLanes != 1 || laneBytes(sets[0]) != oneLane {
		t.Fatalf("single-segment models left %d sets (first: %d lanes, %d bytes of lane state); want 1 of 1 lane, %d bytes",
			len(sets), sets[0].capLanes, laneBytes(sets[0]), oneLane)
	}

	for _, B := range []int{2, 7, 1, 5, 16, 3, 1} {
		compareBatch(t, other, samples[:B], "varying")
	}
	if sets := freeSets(cfg); len(sets) != 1 || sets[0].capLanes != 16 || laneBytes(sets[0]) != 16*oneLane {
		t.Fatalf("after one borrower's 16-lane run %d sets (first: %d lanes, %d bytes); want 1 of 16 lanes, %d bytes",
			len(sets), sets[0].capLanes, laneBytes(sets[0]), 16*oneLane)
	}
	lanes := 16
	if n := testing.AllocsPerRun(30, func() {
		if err := m.PredictBatchInto(samples[:lanes], fhats[:lanes], ahats[:lanes]); err != nil {
			t.Fatal(err)
		}
		if err := other.PredictInto(&samples[0], fhats[0], ahats[0]); err != nil {
			t.Fatal(err)
		}
		lanes = lanes%16 + 1 // 16, 1, 2, … — every count within capacity
	}); n != 0 {
		t.Fatalf("lane counts within capacity allocate %v objects/op, want 0", n)
	}
	if made := LaneSetsMade(cfg); made != 1 {
		t.Fatalf("two models on one goroutine made %d lane sets, want 1", made)
	}
	held, second := m.TakeLanes(), other.TakeLanes()
	defer held.Put()
	defer second.Put()
	if made := LaneSetsMade(cfg); made != 2 || second.capLanes != 16 || laneBytes(second) != 16*oneLane {
		t.Fatalf("a set made while another is held: %d made, %d lanes, %d bytes; want 2 made, 16 lanes, %d bytes",
			made, second.capLanes, laneBytes(second), 16*oneLane)
	}
}

// TestBorrowersLeakNothing runs 32 clones, each over windows of its own,
// through the lane sets of their configuration, in alternating batches of
// 1, 16, 3 and 7 lanes: every PredictBatchInto prediction, and every
// prediction and state read from a set held through PredictWindows, is bit
// for bit a fresh model's for the same window. On one goroutine one set
// serves them all; on 4 goroutines they make at most 4 sets.
func TestBorrowersLeakNothing(t *testing.T) {
	const clones, goroutines = 32, 4
	widths := []int{1, 16, 3, 7}
	rng := rand.New(rand.NewSource(89))
	cfg := unsharedConfig(randomBatchConfig(rng, CouplingFull))
	rounds := 2 * len(widths)
	actions, audience := goldenSeries(clones+rounds+16+cfg.SeqLen, cfg.ActionDim, cfg.AudienceDim, 7)
	samples, err := BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantF, wantA, wantH := make([][]float64, len(samples)), make([][]float64, len(samples)), make([][]float64, len(samples))
	for i := range samples {
		wantF[i], wantA[i], wantH[i] = make([]float64, cfg.ActionDim), make([]float64, cfg.AudienceDim), make([]float64, cfg.HiddenI)
		if err := fresh.PredictInto(&samples[i], wantF[i], wantA[i]); err != nil {
			t.Fatal(err)
		}
		if err := fresh.HiddenInto(&samples[i], wantH[i]); err != nil {
			t.Fatal(err)
		}
	}
	tmpl, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*Model, clones)
	for c := range models {
		models[c] = tmpl.Clone()
	}
	// round runs clone c over the B windows from sample at, through
	// PredictBatchInto into fhats/ahats and then through a held set, and
	// compares every lane with the fresh model's window at+l.
	round := func(what string, c, at, B int, fhats, ahats [][]float64) error {
		m := models[c]
		if err := m.PredictBatchInto(samples[at:at+B], fhats[:B], ahats[:B]); err != nil {
			return err
		}
		ls, err := holdWindows(m, actions, audience, at, B)
		if err != nil {
			return err
		}
		defer ls.Put()
		for l := 0; l < B; l++ {
			w := at + l
			f, a := ls.Prediction(l)
			h := ls.Hidden(l)
			if !identicalBits(fhats[l], wantF[w]) || !identicalBits(ahats[l], wantA[w]) ||
				!identicalBits(f, wantF[w]) || !identicalBits(a, wantA[w]) || !identicalBits(h, wantH[w]) {
				return fmt.Errorf("%s clone %d lane %d: window %d: batch %x/%x, held set %x/%x, state %x; a fresh model gives %x/%x, %x",
					what, c, l, w, bitsOf(fhats[l]), bitsOf(ahats[l]), bitsOf(f), bitsOf(a), bitsOf(h),
					bitsOf(wantF[w]), bitsOf(wantA[w]), bitsOf(wantH[w]))
			}
		}
		return nil
	}
	outputs := func() (fhats, ahats [][]float64) {
		fhats, ahats = make([][]float64, 16), make([][]float64, 16)
		for i := range fhats {
			fhats[i], ahats[i] = make([]float64, cfg.ActionDim), make([]float64, cfg.AudienceDim)
		}
		return fhats, ahats
	}

	fhats, ahats := outputs()
	for r := 0; r < rounds; r++ {
		for c := range models {
			if err := round(fmt.Sprintf("round %d", r), c, c+r, widths[r%len(widths)], fhats, ahats); err != nil {
				t.Fatal(err)
			}
		}
	}
	if made := LaneSetsMade(cfg); made != 1 {
		t.Fatalf("%d models on one goroutine made %d lane sets, want 1", clones+2, made)
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fhats, ahats := outputs()
			for r := 0; r < rounds; r++ {
				for c := g; c < clones; c += goroutines {
					if err := round(fmt.Sprintf("goroutine %d round %d", g, r), c, c+r, widths[(r+g)%len(widths)], fhats, ahats); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if made := LaneSetsMade(cfg); made > goroutines {
		t.Fatalf("%d goroutines made %d lane sets, want at most %d", goroutines, made, goroutines)
	}
}

// TestPlanHoldsNoWeights is the footprint gate of the plan: its fused layers
// are the model's own parameter headers, so a plan costs its lane state and
// no weight bytes. At the served shape the parameters are 18 675 floats,
// 149 400 bytes, which a packed plan held a second time. A clone's first
// write copies its parameters out of the shared arrays, and that copy is
// all the write and the next prediction allocate: there is no second one to
// pack.
func TestPlanHoldsNoWeights(t *testing.T) {
	cfg := DefaultConfig(48, 19)
	cfg.HiddenI, cfg.HiddenA = 32, 16
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	weights := 8 * m.NumParams()
	if weights != 149400 {
		t.Fatalf("the served shape has %d bytes of parameters, want 149400", weights)
	}
	readsParams := func(m *Model, what string) {
		for i, names := range [][2]string{{"lstmI", "decI"}, {"lstmA", "decA"}} {
			st := &m.plan.streams[i]
			for g, gate := range []string{"i", "f", "c", "o"} {
				if st.cell.W[g] != m.ps.Get(names[0]+".W"+gate) || st.cell.B[g] != m.ps.Get(names[0]+".b"+gate) {
					t.Fatalf("%s: stream %d gate %s is not the parameter header", what, i, gate)
				}
			}
			if st.dec.W != m.ps.Get(names[1]+".W") || st.dec.B != m.ps.Get(names[1]+".b") {
				t.Fatalf("%s: stream %d's decoder is not the parameter header", what, i)
			}
		}
	}
	readsParams(m, "model")
	c := m.Clone()
	readsParams(c, "clone")

	actions, audience := goldenSeries(cfg.SeqLen+2, cfg.ActionDim, cfg.AudienceDim, 13)
	samples, err := BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	fhat, ahat := make([]float64, cfg.ActionDim), make([]float64, cfg.AudienceDim)
	if err := c.PredictInto(&samples[0], fhat, ahat); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.ps.BumpVersion() // the seam every write goes through: the clone detaches
	if err := c.PredictInto(&samples[1], fhat, ahat); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	readsParams(c, "written clone")
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a clone's first write and prediction allocate %d bytes", got)
	if got > uint64(weights+weights/4) {
		t.Fatalf("a clone's first write and prediction allocate %d bytes, want one copy of the weights (%d) and headers", got, weights)
	}
	if &c.plan.streams[0].cell.W[0].Data[0] == &m.plan.streams[0].cell.W[0].Data[0] {
		t.Fatal("the written clone's plan still reads the source's arrays")
	}
}

// TestPredictBatchSteadyStateAllocs pins the batched predict path
// allocation-free at a stable batch size, including across online updates.
func TestPredictBatchSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig(12, 8)
	cfg.SeqLen = 4
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	actions, audience := goldenSeries(cfg.SeqLen+12, cfg.ActionDim, cfg.AudienceDim, 9)
	samples, err := BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	const B = 8
	fhats := make([][]float64, B)
	ahats := make([][]float64, B)
	for i := 0; i < B; i++ {
		fhats[i] = make([]float64, cfg.ActionDim)
		ahats[i] = make([]float64, cfg.AudienceDim)
	}
	// Warm: allocate the lane state once.
	if err := m.PredictBatchInto(samples[:B], fhats, ahats); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := m.PredictBatchInto(samples[:B], fhats, ahats); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state PredictBatchInto allocates %v objects/op, want 0", n)
	}
	// Train-predict cycles must stay allocation-free too.
	if _, err := m.TrainStep(&samples[0]); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := m.TrainStep(&samples[1]); err != nil {
			t.Fatal(err)
		}
		if err := m.PredictBatchInto(samples[:B], fhats, ahats); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("train+batch-predict cycle allocates %v objects/op, want 0", n)
	}
}
