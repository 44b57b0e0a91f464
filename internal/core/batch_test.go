package core

import (
	"math"
	"math/rand"
	"runtime"
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

// laneBytes is the size of the plan's lane state: every float64 backing
// array at full capacity.
func laneBytes(p *InferPlan) int {
	n := 0
	for i := range p.streams {
		for _, m := range p.streams[i].state() {
			n += 8 * cap(m.Data)
		}
	}
	return n
}

// TestPlanLaneCapacity pins the capacity contract: a plan starts with one
// lane of state and a model that only ever predicts single segments — every
// serving channel that never batches — keeps exactly that; capacity grows
// on demand, and once grown, any lane count up to it (16 → 1 included) runs
// allocation-free and without cross-lane bleed.
func TestPlanLaneCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cfg := randomBatchConfig(rng, CouplingFull)
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
	m := tmpl.Clone()
	for i := 0; i < 5; i++ {
		if err := m.PredictInto(&samples[i], fhats[0], ahats[0]); err != nil {
			t.Fatal(err)
		}
	}
	if got := laneBytes(m.plan); m.plan.capLanes != 1 || got != oneLane {
		t.Fatalf("single-segment model holds %d lanes, %d bytes of lane state; want 1 lane, %d bytes", m.plan.capLanes, got, oneLane)
	}

	for _, B := range []int{2, 7, 1, 5, 16, 3, 1} {
		compareBatch(t, m, samples[:B], "varying")
	}
	if got := laneBytes(m.plan); m.plan.capLanes != 16 || got != 16*oneLane {
		t.Fatalf("after a 16-lane run the plan holds %d lanes, %d bytes; want 16 lanes, %d bytes", m.plan.capLanes, got, 16*oneLane)
	}
	lanes := 16
	if n := testing.AllocsPerRun(30, func() {
		if err := m.PredictBatchInto(samples[:lanes], fhats[:lanes], ahats[:lanes]); err != nil {
			t.Fatal(err)
		}
		if err := m.PredictInto(&samples[0], fhats[0], ahats[0]); err != nil {
			t.Fatal(err)
		}
		lanes = lanes%16 + 1 // 16, 1, 2, … — every count within capacity
	}); n != 0 {
		t.Fatalf("lane counts within capacity allocate %v objects/op, want 0", n)
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
