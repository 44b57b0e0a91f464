package experiments

import (
	"math"
	"strings"
	"testing"

	"aovlis/internal/ados"
	"aovlis/internal/evalx"
)

// tinyScale keeps the smoke tests fast.
func tinyScale() Scale {
	return Scale{
		TrainSec: 150, TestSec: 200,
		Classes: 16, SeqLen: 4,
		HiddenI: 8, HiddenA: 6,
		Epochs: 2, Omega: 0.8, Seed: 1,
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Desc == "" || e.run == nil {
			t.Fatalf("incomplete experiment entry %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// One entry per paper artifact (4 tables + 9 figure panels + update
	// cost) plus three ablations.
	for _, want := range []string{
		"table1", "table2", "table3", "table4",
		"fig8", "fig9a", "fig9b", "fig10",
		"fig11a", "fig11b", "fig11c",
		"fig12a", "fig12b", "fig12c",
		"updatecost", "ablation-coupling", "ablation-merge", "ablation-adg",
	} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

func TestRunnerCachesDatasetsAndModels(t *testing.T) {
	r := NewRunner(tinyScale())
	ds1, err := r.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := r.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if &ds1[0] != &ds2[0] {
		t.Fatal("datasets rebuilt instead of cached")
	}
	m1, err := r.Model(ds1[0])
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.Model(ds1[0])
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("model retrained instead of cached")
	}
}

func TestOmegaFor(t *testing.T) {
	r := NewRunner(tinyScale())
	if r.omegaFor("INF") != 0.8 {
		t.Fatal("INF ω should be 0.8")
	}
	for _, n := range []string{"SPE", "TED", "TWI"} {
		if r.omegaFor(n) != 0.9 {
			t.Fatalf("%s ω should be 0.9", n)
		}
	}
}

// runTiny runs the experiment registered under id on r and returns its
// only grid.
func runTiny(t *testing.T, r *Runner, id string) *evalx.Table {
	t.Helper()
	for _, e := range All() {
		if e.ID != id {
			continue
		}
		a, err := e.Run(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != 1 {
			t.Fatalf("%s has %d grids, want 1", id, len(a))
		}
		return a[0]
	}
	t.Fatalf("no experiment %q", id)
	return nil
}

// cell reads one number of a grid by its row and column labels.
func cell(t *testing.T, tb *evalx.Table, row, col string) float64 {
	t.Helper()
	v, ok := tb.Value(row, col)
	if !ok {
		t.Fatalf("%q has no cell (%s, %s)", tb.Title, row, col)
	}
	return v
}

var presets = []string{"INF", "SPE", "TED", "TWI"}

// timingIDs are the experiments whose cells are wall-clock measurements.
var timingIDs = map[string]bool{
	"fig11b": true, "fig11c": true, "fig12a": true, "fig12b": true, "fig12c": true, "updatecost": true,
}

// Every registered experiment runs at tinyScale, over one Runner like a
// cmd/experiments battery, and yields well-formed grids; the battery trains
// each CLSTM variant of each dataset — the default model included — once.
func TestQuickExperimentsProduceArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests skipped in -short mode")
	}
	r := NewRunner(tinyScale())
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			a, err := e.Run(r)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) == 0 || a.Render() == "" {
				t.Fatal("no artifact")
			}
			for _, tb := range a {
				if tb.Title == "" || len(tb.Headers) < 2 || len(tb.Rows) == 0 {
					t.Fatalf("empty grid: title %q, %d headers, %d rows", tb.Title, len(tb.Headers), len(tb.Rows))
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Headers) || row[0].Text == "" {
						t.Fatalf("%q has a row of %d cells under %d headers: %v", tb.Title, len(row), len(tb.Headers), row)
					}
					for j, c := range row[1:] {
						if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) || c.Text == "" {
							t.Fatalf("%q cell (%s, %s) is %v %q", tb.Title, row[0].Text, tb.Headers[j+1], c.Value, c.Text)
						}
						if timingIDs[e.ID] && c.Value <= 0 {
							t.Fatalf("%q timing cell (%s, %s) is %v", tb.Title, row[0].Text, tb.Headers[j+1], c.Value)
						}
					}
				}
			}
		})
	}
	// Three losses and three couplings share the JS/two-way model: five
	// variants per dataset, and nothing trained one twice.
	if want := 5 * len(presets); r.trainings != want {
		t.Fatalf("the battery trained %d models, want %d (each variant once)", r.trainings, want)
	}
	for _, d := range r.datasets {
		if n := len(r.variants[d.Name]); n != 5 {
			t.Fatalf("%s holds %d trained variants, want 5", d.Name, n)
		}
	}
}

// A seed whose test stream drew no anomaly is refused where the datasets
// are built, with the preset, the seed and the way out — not deep inside
// the first AUROC.
func TestDatasetsNameTheStreamWithoutAnomaly(t *testing.T) {
	sc := tinyScale()
	sc.Seed = 2
	_, err := NewRunner(sc).Datasets()
	if err == nil {
		t.Fatal("seed 2 draws no anomaly at tinyScale, yet Datasets() accepted it")
	}
	for _, want := range []string{"the INF test stream", "seed 2", "TestSec 200", "lengthen the test stream or pick another seed"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error does not say %q: %v", want, err)
		}
	}
	if _, err := NewRunner(tinyScale()).Datasets(); err != nil {
		t.Fatalf("seed 1: %v", err)
	}
}

// Incremental updates are the paper's headline efficiency claim (§VI-C6):
// one update must cost less than one retrain on every preset — in the
// training steps each side runs, which is deterministic, and in wall clock,
// read as the median of alternated pairs so that one slow moment on a
// loaded host cannot decide it.
func TestUpdateCostShowsSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	tb := runTiny(t, NewRunner(tinyScale()), "updatecost")
	for _, p := range presets {
		if inc, re := cell(t, tb, p, "inc steps"), cell(t, tb, p, "retrain steps"); re/inc <= 1 {
			t.Fatalf("%s: a retrain runs %.0f training steps and an update %.0f, want fewer for the update", p, re, inc)
		}
		if sp := cell(t, tb, p, "speedup"); sp <= 1 {
			t.Fatalf("%s: median speed-up %.2fx, want > 1 (incremental %.1f ms, retrain %.1f ms)",
				p, sp, cell(t, tb, p, "incremental"), cell(t, tb, p, "retrain"))
		}
	}
}

// Coupling helps where the audience feeds back: on INF the two-way CLSTM
// beats the uncoupled LSTM at every seed whose streams carry an anomaly.
// (TWI does not hold at this scale — 24.9 against 45.9 at seed 6 — and is
// recorded in DESIGN.md §5, not asserted; seed 2 draws no anomaly.)
func TestCouplingBeatsNoCouplingOnINF(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	for _, seed := range []int64{1, 3, 4, 5, 6} {
		sc := tinyScale()
		sc.Seed = seed
		tb := runTiny(t, NewRunner(sc), "ablation-coupling")
		if full, none := cell(t, tb, "CLSTM", "INF"), cell(t, tb, "LSTM", "INF"); full <= none {
			t.Errorf("seed %d: CLSTM %.2f%% is not above LSTM %.2f%% on INF", seed, full, none)
		}
	}
}

// Table I's CLSTM+JS row and the coupling ablation's CLSTM row are the same
// model: the Runner's cached default, trained once.
func TestDefaultModelSharedAcrossArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	r := NewRunner(tinyScale())
	t1, ac := runTiny(t, r, "table1"), runTiny(t, r, "ablation-coupling")
	for _, d := range r.datasets {
		if js, full := cell(t, t1, "CLSTM+JS", d.Name), cell(t, ac, "CLSTM", d.Name); js != full {
			t.Fatalf("%s: CLSTM+JS %v != CLSTM %v", d.Name, js, full)
		}
		m, err := r.Model(d)
		if err != nil {
			t.Fatal(err)
		}
		if m != r.variants[d.Name][served].model {
			t.Fatalf("%s: Model() is not the variant both rows scored", d.Name)
		}
	}
	if want := 5 * len(presets); r.trainings != want {
		t.Fatalf("two artifacts over six rows trained %d models, want %d", r.trainings, want)
	}
}

// ADOS prunes without changing a verdict: every strategy of Fig. 11(a)/(b)
// flags exactly the segments the exact computation flags, and the bounds'
// filtering powers nest the way the strategies do.
func TestBoundsChangeNoVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	r := NewRunner(tinyScale())
	power := runTiny(t, r, "fig11a")
	for _, d := range r.datasets {
		exact, err := r.runFilter(d, func(c *ados.Config) { c.Strategy = ados.StrategyNoBound })
		if err != nil {
			t.Fatal(err)
		}
		if fp := exact.FilteringPower(); fp != 0 {
			t.Fatalf("%s: NoBound filtered %.2f of the segments", d.Name, fp)
		}
		for _, s := range append(append([]ados.Strategy{}, powerStrategies...), timedStrategies...) {
			p, err := r.runFilter(d, func(c *ados.Config) { c.Strategy = s })
			if err != nil {
				t.Fatal(err)
			}
			for i := range exact.flagged {
				if p.flagged[i] != exact.flagged[i] {
					t.Fatalf("%s: %s flags sample %d %v, the exact computation %v", d.Name, s, i, p.flagged[i], exact.flagged[i])
				}
			}
		}
		fp := func(s ados.Strategy) float64 { return cell(t, power, s.String(), d.Name) }
		all, l1 := fp(ados.StrategyAllBounds), fp(ados.StrategyL1)
		switch {
		case l1 < math.Max(fp(ados.StrategyJSminOnly), fp(ados.StrategyJSmaxOnly)):
			t.Fatalf("%s: JSmin+JSmax filters %.2f%%, less than one of its bounds alone", d.Name, l1)
		case all < l1 || all < fp(ados.StrategyREGOnly):
			t.Fatalf("%s: all bounds filter %.2f%%, less than a subset of them", d.Name, all)
		case fp(ados.StrategyADOS) > all:
			t.Fatalf("%s: ADOS filters %.2f%%, more than all bounds applied unconditionally (%.2f%%)", d.Name, fp(ados.StrategyADOS), all)
		}
	}
}
