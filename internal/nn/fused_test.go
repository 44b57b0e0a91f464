package nn

import (
	"math"
	"math/rand"
	"testing"

	"aovlis/internal/ad"
	"aovlis/internal/mat"
)

// TestFusedCellMatchesTapeStep drives one LSTM step both ways — four gate
// MatMul nodes on the tape vs the packed GEMV + fused gate kernel — and
// requires bit-identical hidden and cell states.
func TestFusedCellMatchesTapeStep(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range []struct{ ctx, hidden int }{{7, 3}, {56, 16}, {112, 48}} {
		ps := NewParamSet()
		cell := NewLSTMCell(ps, "cell", dims.ctx, dims.hidden, rng)
		fc := cell.Pack(ps)

		for trial := 0; trial < 20; trial++ {
			ctx := make([]float64, dims.ctx)
			cPrev := make([]float64, dims.hidden)
			for i := range ctx {
				ctx[i] = rng.NormFloat64()
			}
			if trial%3 == 0 { // zero prefix, like h=g=0 at t=0
				for i := 0; i < dims.ctx/2; i++ {
					ctx[i] = 0
				}
			}
			for i := range cPrev {
				cPrev[i] = rng.NormFloat64()
			}

			tp := ad.NewTape()
			b := ps.Bind(tp)
			hN, cN := cell.Step(b, tp.ConstVector(ctx), tp.Const(mat.VectorOf(cPrev)))

			gotH := make([]float64, dims.hidden)
			gotC := make([]float64, dims.hidden)
			pre := make([]float64, 4*dims.hidden)
			fc.StepInto(gotH, gotC, pre, ctx, cPrev)

			for j := 0; j < dims.hidden; j++ {
				if math.Float64bits(gotH[j]) != math.Float64bits(hN.Value.Data[j]) {
					t.Fatalf("ctx=%d h[%d]: fused %v, tape %v", dims.ctx, j, gotH[j], hN.Value.Data[j])
				}
				if math.Float64bits(gotC[j]) != math.Float64bits(cN.Value.Data[j]) {
					t.Fatalf("ctx=%d c[%d]: fused %v, tape %v", dims.ctx, j, gotC[j], cN.Value.Data[j])
				}
			}
		}
	}
}

// TestFusedDenseMatchesTapeApply checks every activation kind: each row of
// a B-lane ApplyBatch, B = 1 included, carries the bits of the tape's Apply
// on that row alone.
func TestFusedDenseMatchesTapeApply(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, act := range []Activation{Linear, SigmoidAct, TanhAct, ReLUAct, SoftmaxAct} {
		ps := NewParamSet()
		d := NewDense(ps, "dec", 24, 10, act, rng)
		fd := d.Pack(ps)
		for lanes := 1; lanes <= 5; lanes++ {
			x := mat.New(lanes, 24)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			got, pre := mat.New(lanes, 10), mat.New(lanes, 10)
			fd.ApplyBatch(got, pre, x)
			for l := 0; l < lanes; l++ {
				tp := ad.NewTape()
				ref := d.Apply(ps.Bind(tp), tp.ConstVector(x.Row(l)))
				for j, v := range got.Row(l) {
					if math.Float64bits(v) != math.Float64bits(ref.Value.Data[j]) {
						t.Fatalf("act %d lanes %d lane %d out[%d]: fused %v, tape %v", act, lanes, l, j, v, ref.Value.Data[j])
					}
				}
			}
		}
	}
}

// TestPackIntoTracksUpdates verifies that PackInto refreshes an existing
// packed cell/dense to the live parameter values without allocating.
func TestPackIntoTracksUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	ps := NewParamSet()
	cell := NewLSTMCell(ps, "cell", 12, 5, rng)
	dec := NewDense(ps, "dec", 5, 4, SoftmaxAct, rng)
	fc := cell.Pack(ps)
	fd := dec.Pack(ps)

	// Mutate every parameter, as an optimiser step would.
	for _, name := range ps.Names() {
		m := ps.Get(name)
		for i := range m.Data {
			m.Data[i] += 0.25 * rng.NormFloat64()
		}
	}
	ps.BumpVersion()

	allocs := testing.AllocsPerRun(50, func() {
		cell.PackInto(ps, fc)
		dec.PackInto(ps, fd)
	})
	if allocs > 0 {
		t.Fatalf("PackInto allocates %v per repack, want 0", allocs)
	}

	// Check the packed layout: packed column g·H+j of row k equals gate g's
	// weight W[k][j], for every gate.
	h := cell.Hidden
	for gi, gate := range []string{"i", "f", "c", "o"} {
		w := ps.Get("cell.W" + gate)
		for k := 0; k < cell.CtxDim; k++ {
			for j := 0; j < h; j++ {
				if got, want := fc.W.At(k, gi*h+j), w.At(k, j); got != want {
					t.Fatalf("gate %s W[%d][%d]: packed %v, live %v", gate, k, j, got, want)
				}
			}
		}
		b := ps.Get("cell.b" + gate)
		for j := 0; j < h; j++ {
			if fc.B[gi*h+j] != b.Data[j] {
				t.Fatalf("gate %s b[%d] not repacked", gate, j)
			}
		}
	}
	if fd.W.At(2, 3) != ps.Get("dec.W").At(2, 3) || fd.B[1] != ps.Get("dec.b").Data[1] {
		t.Fatal("dense not repacked to live values")
	}
}

// TestParamSetVersionBumps pins the mutation points that must invalidate
// compiled inference plans.
func TestParamSetVersionBumps(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	ps := NewParamSet()
	NewDense(ps, "d", 3, 2, Linear, rng)
	v0 := ps.Version()

	other := ps.Clone()
	if err := ps.CopyFrom(other); err != nil {
		t.Fatal(err)
	}
	if ps.Version() == v0 {
		t.Fatal("CopyFrom did not bump version")
	}
	v1 := ps.Version()
	if err := ps.Average(other, 0.5); err != nil {
		t.Fatal(err)
	}
	if ps.Version() == v1 {
		t.Fatal("Average did not bump version")
	}
	v2 := ps.Version()
	NewAdam(0.01).StepFlat(ps, []*mat.Matrix{mat.New(3, 2), mat.New(1, 2)}) // d.W, d.b
	if ps.Version() == v2 {
		t.Fatal("Adam.StepFlat did not bump version")
	}
}
