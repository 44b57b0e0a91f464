package evalx

import (
	"math"
	"math/rand"
	"testing"
)

func TestAUROCPerfectSeparation(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	got, err := AUROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("AUROC = %v, want 1", got)
	}
}

func TestAUROCInverted(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []bool{true, true, false, false}
	got, _ := AUROC(scores, labels)
	if got != 0 {
		t.Fatalf("AUROC = %v, want 0", got)
	}
}

func TestAUROCRandomIsHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 4000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Float64() < 0.3
	}
	got, err := AUROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 0.03 {
		t.Fatalf("random AUROC = %v, want ≈ 0.5", got)
	}
}

func TestAUROCTies(t *testing.T) {
	// All scores identical → AUROC must be exactly 0.5 under average ranks.
	scores := []float64{1, 1, 1, 1}
	labels := []bool{true, false, true, false}
	got, err := AUROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("tied AUROC = %v, want 0.5", got)
	}
}

func TestAUROCNeedsBothClasses(t *testing.T) {
	if _, err := AUROC([]float64{1, 2}, []bool{true, true}); err == nil {
		t.Fatal("single-class AUROC accepted")
	}
	if _, err := AUROC([]float64{1}, []bool{true, false}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestROCShape(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.7, 0.2}
	labels := []bool{true, false, true, false}
	curve, err := ROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if curve[0].FPR != 0 || curve[0].TPR != 0 {
		t.Fatalf("curve must start at origin: %+v", curve[0])
	}
	last := curve[len(curve)-1]
	if last.FPR != 1 || last.TPR != 1 {
		t.Fatalf("curve must end at (1,1): %+v", last)
	}
	// Monotone non-decreasing in both axes.
	for i := 1; i < len(curve); i++ {
		if curve[i].FPR < curve[i-1].FPR || curve[i].TPR < curve[i-1].TPR {
			t.Fatalf("non-monotone curve at %d: %+v", i, curve)
		}
	}
}

func TestROCAgreesWithAUROC(t *testing.T) {
	// Trapezoidal area under ROC should match the rank-based AUROC.
	rng := rand.New(rand.NewSource(2))
	scores := make([]float64, 300)
	labels := make([]bool, 300)
	for i := range scores {
		labels[i] = rng.Float64() < 0.4
		if labels[i] {
			scores[i] = rng.NormFloat64() + 1
		} else {
			scores[i] = rng.NormFloat64()
		}
	}
	curve, err := ROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	var area float64
	for i := 1; i < len(curve); i++ {
		area += (curve[i].FPR - curve[i-1].FPR) * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	auroc, _ := AUROC(scores, labels)
	if math.Abs(area-auroc) > 1e-9 {
		t.Fatalf("trapezoid area %v != rank AUROC %v", area, auroc)
	}
}

func TestTPRAtFPR(t *testing.T) {
	curve := []ROCPoint{{0, 0}, {0.5, 0.8}, {1, 1}}
	if got := TPRAtFPR(curve, 0.25); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("interp = %v, want 0.4", got)
	}
	if got := TPRAtFPR(curve, 1); got != 1 {
		t.Fatalf("at 1 = %v", got)
	}
	if got := TPRAtFPR(nil, 0.5); got != 0 {
		t.Fatalf("empty curve = %v", got)
	}
}

func TestConfusionAtThreshold(t *testing.T) {
	scores := []float64{0.9, 0.4, 0.8, 0.1}
	labels := []bool{true, true, false, false}
	tp, fp, tn, fn := ConfusionAtThreshold(scores, labels, 0.5)
	if tp != 1 || fp != 1 || tn != 1 || fn != 1 {
		t.Fatalf("confusion = %d/%d/%d/%d", tp, fp, tn, fn)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table I: AUROC", "Method", "INF", "SPE")
	tb.AddRowf("CLSTM+JS", 79.88, 64.53)
	tb.AddRowf("CLSTM+KL", 78.12, Fmt("%.1fx", 7.25))
	tb.Note = "best: JS"
	want := "Table I: AUROC\n" +
		"Method    INF    SPE  \n" +
		"--------  -----  -----\n" +
		"CLSTM+JS  79.88  64.53\n" +
		"CLSTM+KL  78.12  7.2x \n" +
		"best: JS\n"
	if out := tb.Render(); out != want {
		t.Fatalf("render:\n%s\nwant:\n%s", out, want)
	}
	// The cell keeps the number it was printed from, not the printed text.
	if v, ok := tb.Value("CLSTM+KL", "SPE"); !ok || v != 7.25 {
		t.Fatalf("Value(CLSTM+KL, SPE) = %v, %v; want 7.25", v, ok)
	}
	if v, ok := tb.Value("CLSTM+JS", "INF"); !ok || v != 79.88 {
		t.Fatalf("Value(CLSTM+JS, INF) = %v, %v", v, ok)
	}
	for _, miss := range [][2]string{{"CLSTM+L2", "INF"}, {"CLSTM+JS", "TED"}, {"CLSTM+JS", "Method"}} {
		if _, ok := tb.Value(miss[0], miss[1]); ok {
			t.Fatalf("Value(%s, %s) found a cell", miss[0], miss[1])
		}
	}
}

func BenchmarkAUROC(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	scores := make([]float64, 5000)
	labels := make([]bool, 5000)
	for i := range scores {
		scores[i] = rng.Float64()
		labels[i] = rng.Float64() < 0.2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AUROC(scores, labels); err != nil {
			b.Fatal(err)
		}
	}
}
