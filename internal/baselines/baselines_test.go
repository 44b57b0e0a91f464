package baselines

import (
	"math/rand"
	"testing"

	"aovlis/internal/evalx"
	"aovlis/internal/mat"
)

// makeSeries builds a normal series of sparse action distributions cycling
// through states, with constant audience features; anomalies (if any) are
// injected as off-pattern distributions at the given indices.
func makeSeries(rng *rand.Rand, n, d1, d2 int, anomalies map[int]bool) (actions, audience [][]float64, labels []bool) {
	for t := 0; t < n; t++ {
		f := make([]float64, d1)
		if anomalies[t] {
			// Off-pattern: activate a class never used by the normal cycle.
			f[d1-1-(t%3)] = 1
		} else {
			f[(t/4)%(d1/2)] = 1
		}
		for i := range f {
			f[i] += 0.02 + 0.01*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, d2)
		base := 0.3
		if anomalies[t] {
			base = 0.9 // the audience reacts to the anomaly
		}
		for i := range a {
			a[i] = base + 0.05*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
		labels = append(labels, anomalies[t])
	}
	return actions, audience, labels
}

func fitConfig() FitConfig { return FitConfig{Epochs: 12, Seed: 1} }

func TestAllDetectorsSeparateAnomalies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trainA, trainU, _ := makeSeries(rng, 120, 12, 4, nil)

	anoms := map[int]bool{}
	for _, i := range []int{30, 31, 55, 56, 80, 81} {
		anoms[i] = true
	}
	testA, testU, labels := makeSeries(rng, 100, 12, 4, anoms)

	for _, det := range Standard(4, 12, 8, 0.8) {
		det := det
		t.Run(det.Name(), func(t *testing.T) {
			if err := det.Fit(trainA, trainU, fitConfig()); err != nil {
				t.Fatal(err)
			}
			scores, valid, err := det.Score(testA, testU)
			if err != nil {
				t.Fatal(err)
			}
			if valid.Lo < 0 || valid.Hi > len(scores) || valid.Lo >= valid.Hi {
				t.Fatalf("invalid range %+v", valid)
			}
			var vs []float64
			var vl []bool
			for i := valid.Lo; i < valid.Hi; i++ {
				vs = append(vs, scores[i])
				vl = append(vl, labels[i])
			}
			auroc, err := evalx.AUROC(vs, vl)
			if err != nil {
				t.Fatal(err)
			}
			// Every method must do clearly better than chance on this
			// easy, visually-distinct workload.
			if auroc < 0.7 {
				t.Fatalf("%s AUROC = %.3f on an easy workload", det.Name(), auroc)
			}
		})
	}
}

func TestScoreBeforeFitErrors(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	u := [][]float64{{0}, {0}}
	for _, det := range []Detector{NewLTR(2, 4), NewVEC(1, 4), NewRTFM(4, 1, 1), NewCLSTM(2, 4, 4, 0.8)} {
		if _, _, err := det.Score(a, u); err == nil {
			t.Fatalf("%s scored before Fit", det.Name())
		}
	}
}

func TestFitValidation(t *testing.T) {
	short := [][]float64{{1, 0}}
	shortU := [][]float64{{0}}
	if err := NewLTR(5, 4).Fit(short, shortU, fitConfig()); err == nil {
		t.Fatal("LTR accepted too-short series")
	}
	if err := NewVEC(3, 4).Fit(short, shortU, fitConfig()); err == nil {
		t.Fatal("VEC accepted too-short series")
	}
	if err := NewRTFM(4, 1, 1).Fit(nil, nil, fitConfig()); err == nil {
		t.Fatal("RTFM accepted empty series")
	}
	if err := NewCLSTM(4, 4, 4, 0.8).Fit(nil, nil, fitConfig()); err == nil {
		t.Fatal("CLSTM accepted empty series")
	}
}

func TestNames(t *testing.T) {
	want := []string{"LTR", "VEC", "LSTM", "RTFM", "CLSTM-S", "CLSTM"}
	got := Standard(4, 8, 8, 0.8)
	if len(got) != len(want) {
		t.Fatalf("Standard returned %d detectors", len(got))
	}
	for i, d := range got {
		if d.Name() != want[i] {
			t.Fatalf("detector %d = %s, want %s", i, d.Name(), want[i])
		}
	}
}

func TestVECUsesBidirectionalContext(t *testing.T) {
	// VEC's valid range must exclude both edges (needs future segments),
	// unlike the LSTM family which only excludes the past.
	rng := rand.New(rand.NewSource(3))
	a, u, _ := makeSeries(rng, 40, 8, 4, nil)
	v := NewVEC(2, 8)
	if err := v.Fit(a, u, FitConfig{Epochs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	_, valid, err := v.Score(a, u)
	if err != nil {
		t.Fatal(err)
	}
	if valid.Lo != 2 || valid.Hi != 38 {
		t.Fatalf("VEC range %+v, want [2,38)", valid)
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{Lo: 2, Hi: 5}
	if r.Contains(1) || !r.Contains(2) || !r.Contains(4) || r.Contains(5) {
		t.Fatal("Range.Contains wrong")
	}
}
