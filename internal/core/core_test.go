package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"aovlis/internal/mat"
	"aovlis/internal/nn"
)

func testConfig() Config {
	cfg := DefaultConfig(8, 4)
	cfg.HiddenI, cfg.HiddenA = 8, 6
	cfg.SeqLen = 4
	cfg.LearningRate = 0.01
	return cfg
}

// makeCoupledSeries generates a feature series whose cross-stream coupling
// is *structurally required* for prediction: the presenter's latent state
// advances exactly when audience excitement (whose innovations are random
// and visible only in the audience stream) crosses a threshold. A model
// that cannot read the audience stream cannot know whether the state
// advanced, so the coupled CLSTM has a real information advantage — the
// situation the paper's Fig. 3 describes.
func makeCoupledSeries(rng *rand.Rand, n, d1, d2 int) (actions, audience [][]float64) {
	state := 0
	excite, excitePrev := 0.3, 0.3
	for t := 0; t < n; t++ {
		f := make([]float64, d1)
		f[state%d1] = 1
		f[(state+1)%d1] = 0.25
		for i := range f {
			f[i] += 0.01
		}
		mat.Normalize(f)
		a := make([]float64, d2)
		for i := range a {
			a[i] = excite + 0.01*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
		// The influencer reacts to the audience with a one-step delay (the
		// paper: "considering the possible time delay in comment input"):
		// the presentation state advances iff the *previous* excitement was
		// high. Excitement itself has fresh random innovations each step,
		// observable only through the audience stream — so the advance bit
		// is structurally invisible to an uncoupled action-only model.
		if excitePrev > 0.55 {
			state++
		}
		excitePrev = excite
		excite = 0.5*excite + 0.5*rng.Float64()
	}
	return actions, audience
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.ActionDim = 0 },
		func(c *Config) { c.AudienceDim = -1 },
		func(c *Config) { c.HiddenI = 0 },
		func(c *Config) { c.HiddenA = 0 },
		func(c *Config) { c.SeqLen = 0 },
		func(c *Config) { c.Omega = 1.5 },
		func(c *Config) { c.Omega = -0.1 },
		func(c *Config) { c.LearningRate = 0 },
		// A NaN is no weight and no rate, and a NaN key would give every
		// model of the configuration a lane-set list of its own.
		func(c *Config) { c.Omega = math.NaN() },
		func(c *Config) { c.LearningRate = math.NaN() },
	}
	for i, mut := range cases {
		c := testConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestCouplingString(t *testing.T) {
	if CouplingFull.String() != "CLSTM" || CouplingOneWay.String() != "CLSTM-S" || CouplingNone.String() != "LSTM" {
		t.Fatal("Coupling.String wrong")
	}
}

func TestCtxDims(t *testing.T) {
	cfg := testConfig() // d1=8 d2=4 h1=8 h2=6
	cfg.Coupling = CouplingFull
	i, a := cfg.ctxDims()
	if i != 8+6+8 || a != 8+6+4 {
		t.Fatalf("full ctx dims %d/%d", i, a)
	}
	cfg.Coupling = CouplingOneWay
	i, a = cfg.ctxDims()
	if i != 8+8 || a != 8+6+4 {
		t.Fatalf("one-way ctx dims %d/%d", i, a)
	}
	cfg.Coupling = CouplingNone
	i, a = cfg.ctxDims()
	if i != 8+8 || a != 6+4 {
		t.Fatalf("none ctx dims %d/%d", i, a)
	}
}

func TestBuildSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	actions, audience := makeCoupledSeries(rng, 20, 8, 4)
	samples, err := BuildSamples(actions, audience, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 16 {
		t.Fatalf("got %d samples, want 16", len(samples))
	}
	s := samples[0]
	if len(s.ActionSeq) != 4 || s.Index != 4 {
		t.Fatalf("sample 0: seq len %d index %d", len(s.ActionSeq), s.Index)
	}
	if &s.ActionTarget[0] != &actions[4][0] {
		t.Fatal("target should alias the t-th feature")
	}
	last := samples[len(samples)-1]
	if last.Index != 19 {
		t.Fatalf("last index %d, want 19", last.Index)
	}
}

func TestBuildSamplesErrors(t *testing.T) {
	a := [][]float64{{1}, {1}}
	if _, err := BuildSamples(a, a[:1], 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := BuildSamples(a, a, 0); err == nil {
		t.Fatal("q=0 accepted")
	}
	if _, err := BuildSamples(a, a, 5); err == nil {
		t.Fatal("too-short series accepted")
	}
}

func TestPredictShapesAndSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	actions, audience := makeCoupledSeries(rng, 12, 8, 4)
	samples, err := BuildSamples(actions, audience, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, coupling := range []Coupling{CouplingFull, CouplingOneWay, CouplingNone} {
		cfg := testConfig()
		cfg.Coupling = coupling
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fhat, ahat, err := m.Predict(&samples[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(fhat) != 8 || len(ahat) != 4 {
			t.Fatalf("%v: prediction dims %d/%d", coupling, len(fhat), len(ahat))
		}
		if math.Abs(mat.VecSum(fhat)-1) > 1e-9 {
			t.Fatalf("%v: f̂ not on simplex: sum=%v", coupling, mat.VecSum(fhat))
		}
	}
}

func TestPredictValidatesDims(t *testing.T) {
	m, err := NewModel(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := Sample{
		ActionSeq:   [][]float64{{1, 2}},
		AudienceSeq: [][]float64{{1}},
	}
	if _, _, err := m.Predict(&bad); err == nil {
		t.Fatal("bad sample accepted")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	actions, audience := makeCoupledSeries(rng, 40, 8, 4)
	samples, err := BuildSamples(actions, audience, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, loss := range []nn.LossKind{nn.LossJS, nn.LossKL, nn.LossL2} {
		cfg := testConfig()
		cfg.Loss = loss
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before, err := m.EvalLoss(samples)
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 25; epoch++ {
			if _, err := m.TrainEpoch(samples, rng); err != nil {
				t.Fatal(err)
			}
		}
		after, err := m.EvalLoss(samples)
		if err != nil {
			t.Fatal(err)
		}
		if after >= before {
			t.Fatalf("loss %v did not decrease: %.6f -> %.6f", loss, before, after)
		}
	}
}

func TestHiddenDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	actions, audience := makeCoupledSeries(rng, 12, 8, 4)
	samples, _ := BuildSamples(actions, audience, 4)
	m, err := NewModel(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.HiddenInto(&samples[0], make([]float64, m.Config().HiddenI)); err != nil {
		t.Fatal(err)
	}
	if err := m.HiddenInto(&samples[0], make([]float64, m.Config().HiddenI+1)); err == nil {
		t.Fatal("HiddenInto accepted a buffer longer than the hidden dim")
	}
}

func TestScoreComposition(t *testing.T) {
	f := []float64{0.5, 0.5}
	fhat := []float64{0.9, 0.1}
	a := []float64{0, 0}
	ahat := []float64{3, 4}
	s := NewScore(f, fhat, a, ahat, 0.8)
	if math.Abs(s.REA-5) > 1e-9 {
		t.Fatalf("REA = %v, want 5", s.REA)
	}
	if s.REI <= 0 {
		t.Fatalf("REI = %v, want > 0", s.REI)
	}
	want := 0.8*s.REI + 0.2*s.REA
	if math.Abs(s.REIA-want) > 1e-12 {
		t.Fatalf("REIA = %v, want %v", s.REIA, want)
	}
	if got := s.REIAOf(0.5); math.Abs(got-(0.5*s.REI+0.5*s.REA)) > 1e-12 {
		t.Fatalf("REIAOf = %v", got)
	}
}

func TestJSDivergenceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(16)
		p, q := make([]float64, n), make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
			q[i] = rng.Float64()
		}
		mat.Normalize(p)
		mat.Normalize(q)
		js := JSDivergence(p, q)
		if js < 0 || js > math.Log(2)+1e-9 {
			t.Fatalf("JS out of range: %v", js)
		}
		if d := math.Abs(js - JSDivergence(q, p)); d > 1e-12 {
			t.Fatalf("JS asymmetric by %v", d)
		}
		if self := JSDivergence(p, p); self > 1e-9 {
			t.Fatalf("JS(p,p) = %v", self)
		}
	}
}

func TestCalibrateThreshold(t *testing.T) {
	scores := []float64{5, 1, 3, 2, 4}
	if got := CalibrateThreshold(scores, 1.0); got != 5 {
		t.Fatalf("q=1 -> %v", got)
	}
	if got := CalibrateThreshold(scores, 0); got != 1 {
		t.Fatalf("q=0 -> %v", got)
	}
	if got := CalibrateThreshold(scores, 0.5); got != 3 {
		t.Fatalf("q=0.5 -> %v", got)
	}
	if got := CalibrateThreshold(nil, 0.5); got != 0 {
		t.Fatalf("empty -> %v", got)
	}
}

func TestSaveLoadPreservesPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	actions, audience := makeCoupledSeries(rng, 14, 8, 4)
	samples, _ := BuildSamples(actions, audience, 4)
	m, err := NewModel(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.TrainStep(&samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f1, a1, _ := m.Predict(&samples[7])
	f2, a2, _ := m2.Predict(&samples[7])
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("action prediction changed across save/load")
		}
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("audience prediction changed across save/load")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	actions, audience := makeCoupledSeries(rng, 14, 8, 4)
	samples, _ := BuildSamples(actions, audience, 4)
	m, _ := NewModel(testConfig())
	c := m.Clone()
	if _, err := c.TrainStep(&samples[0]); err != nil {
		t.Fatal(err)
	}
	f1, _, _ := m.Predict(&samples[5])
	f2, _, _ := c.Predict(&samples[5])
	same := true
	for i := range f1 {
		if f1[i] != f2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("training the clone changed (or matched) the original — clone not independent")
	}
}

func TestMerge(t *testing.T) {
	m1, _ := NewModel(testConfig())
	cfg2 := testConfig()
	cfg2.Seed = 99
	m2, _ := NewModel(cfg2)
	w1 := m1.Params().Get("decI.W").Data[0]
	w2 := m2.Params().Get("decI.W").Data[0]
	if err := m1.Merge(m2, 0.5); err != nil {
		t.Fatal(err)
	}
	got := m1.Params().Get("decI.W").Data[0]
	if math.Abs(got-(w1+w2)/2) > 1e-12 {
		t.Fatalf("merged weight %v, want %v", got, (w1+w2)/2)
	}

	cfgBig := testConfig()
	cfgBig.HiddenI = 16
	m3, _ := NewModel(cfgBig)
	if err := m1.Merge(m3, 0.5); err == nil {
		t.Fatal("merge across architectures accepted")
	}
}

func TestNumParamsPositiveAndStable(t *testing.T) {
	m1, _ := NewModel(testConfig())
	m2, _ := NewModel(testConfig())
	if m1.NumParams() == 0 || m1.NumParams() != m2.NumParams() {
		t.Fatalf("NumParams unstable: %d vs %d", m1.NumParams(), m2.NumParams())
	}
}

// The headline property of the paper: on data with genuine mutual influence
// between presenter and audience, the fully-coupled CLSTM predicts better
// than two uncoupled LSTMs, given identical budgets.
func TestCouplingHelpsOnCoupledData(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	actions, audience := makeCoupledSeries(rng, 460, 8, 4)
	samples, err := BuildSamples(actions, audience, 4)
	if err != nil {
		t.Fatal(err)
	}
	train, test := samples[:400], samples[400:]

	evalAfterTraining := func(coupling Coupling) float64 {
		cfg := testConfig()
		cfg.Coupling = coupling
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(9))
		for epoch := 0; epoch < 25; epoch++ {
			if _, err := m.TrainEpoch(train, r); err != nil {
				t.Fatal(err)
			}
		}
		l, err := m.EvalLoss(test)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	full := evalAfterTraining(CouplingFull)
	none := evalAfterTraining(CouplingNone)
	// The advance-or-not bit of the presenter state is observable only via
	// the audience stream, so the coupled model should be clearly better —
	// require at least a 30% improvement in held-out reconstruction loss.
	if full > none*0.7 {
		t.Fatalf("coupled CLSTM (%.6f) not clearly better than uncoupled (%.6f) on coupled data", full, none)
	}
}
