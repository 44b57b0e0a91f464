package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aovlis/internal/ad"
	"aovlis/internal/mat"
)

// TestFusedCellMatchesTapeStep drives one LSTM step both ways — four gate
// MatMul nodes on the tape vs the four strided gate GEMVs + fused gate kernel — and
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
			hN, cN := cell.Step(b, tp.Const(mat.VectorOf(ctx)), tp.Const(mat.VectorOf(cPrev)))

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
				ref := d.Apply(ps.Bind(tp), tp.Const(mat.VectorOf(x.Row(l))))
				for j, v := range got.Row(l) {
					if math.Float64bits(v) != math.Float64bits(ref.Value.Data[j]) {
						t.Fatalf("act %d lanes %d lane %d out[%d]: fused %v, tape %v", act, lanes, l, j, v, ref.Value.Data[j])
					}
				}
			}
		}
	}
}

// TestPackIntoTracksUpdates pins that a packed cell and dense layer track
// parameter updates with no refresh step and no allocation: a write — in
// place, or through a copy-on-write detach that repoints Data — is what the
// next step reads, bit for bit the tape's step on the written values, and
// the source of a detached clone keeps reading its own values.
func TestPackIntoTracksUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	src := NewParamSet()
	cell := NewLSTMCell(src, "cell", 12, 5, rng)
	dec := NewDense(src, "dec", 5, 4, SoftmaxAct, rng)
	ps := src.Clone()
	fc, fd := cell.Pack(ps), dec.Pack(ps)

	ctx, cPrev := make([]float64, cell.CtxDim), make([]float64, cell.Hidden)
	for i := range ctx {
		ctx[i] = rng.NormFloat64()
	}
	h, c, pre := make([]float64, cell.Hidden), make([]float64, cell.Hidden), make([]float64, 4*cell.Hidden)
	hRow, out, outPre := mat.FromSlice(1, len(h), h), mat.New(1, dec.Out), mat.New(1, dec.Out)
	fused := func() {
		fc.StepInto(h, c, pre, ctx, cPrev)
		fd.ApplyBatch(out, outPre, hRow)
	}
	step := func(set *ParamSet) (string, string) {
		fused()
		tp := ad.NewTape()
		b := set.Bind(tp)
		hN, cN := cell.Step(b, tp.Const(mat.VectorOf(ctx)), tp.Const(mat.VectorOf(cPrev)))
		y := dec.Apply(b, hN)
		for j := range h {
			if math.Float64bits(h[j]) != math.Float64bits(hN.Value.Data[j]) || math.Float64bits(c[j]) != math.Float64bits(cN.Value.Data[j]) {
				t.Fatalf("state %d: fused (%v, %v), tape (%v, %v)", j, h[j], c[j], hN.Value.Data[j], cN.Value.Data[j])
			}
		}
		for j, v := range out.Data {
			if math.Float64bits(v) != math.Float64bits(y.Value.Data[j]) {
				t.Fatalf("out %d: fused %v, tape %v", j, v, y.Value.Data[j])
			}
		}
		return fmt.Sprint(h), fmt.Sprint(out.Data)
	}
	h0, y0 := step(ps)

	// Mutate every parameter, as an optimiser step would: BumpVersion first,
	// which detaches the clone from src.
	ps.BumpVersion()
	for _, name := range ps.Names() {
		m := ps.Get(name)
		for i := range m.Data {
			m.Data[i] += 0.25 * rng.NormFloat64()
		}
	}
	if allocs := testing.AllocsPerRun(50, fused); allocs > 0 {
		t.Fatalf("a fused step after a parameter write allocates %v, want 0", allocs)
	}
	if h1, y1 := step(ps); h1 == h0 || y1 == y0 {
		t.Fatal("the fused layers did not see the parameter write")
	}
	fc, fd = cell.Pack(src), dec.Pack(src)
	if h2, y2 := step(src); h2 != h0 || y2 != y0 {
		t.Fatal("the clone's write reached its source's fused layers")
	}
}

// TestPackedBytesEqualParamBytes pins that a packed cell and a packed dense
// layer cost no weight bytes of their own: their matrices are the
// ParamSet's headers, so the floats they read are exactly the parameters'
// floats, before and after a copy-on-write detach repoints the headers'
// Data.
func TestPackedBytesEqualParamBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	src := NewParamSet()
	cell := NewLSTMCell(src, "cell", 13, 4, rng)
	dec := NewDense(src, "dec", 4, 7, SoftmaxAct, rng)
	ps := src.Clone()
	fc, fd := cell.Pack(ps), dec.Pack(ps)
	check := func(stage string) {
		t.Helper()
		held := []*mat.Matrix{fd.W, fd.B}
		for g, gate := range []string{"i", "f", "c", "o"} {
			if fc.W[g] != ps.Get("cell.W"+gate) || fc.B[g] != ps.Get("cell.b"+gate) {
				t.Fatalf("%s: gate %s of the packed cell holds matrices of its own", stage, gate)
			}
			held = append(held, fc.W[g], fc.B[g])
		}
		if fd.W != ps.Get("dec.W") || fd.B != ps.Get("dec.b") {
			t.Fatalf("%s: the packed dense layer holds matrices of its own", stage)
		}
		floats := 0
		for _, m := range held {
			floats += len(m.Data)
		}
		if params := ps.NumParams(); floats != params {
			t.Fatalf("%s: packed layers read %d floats, their parameters hold %d", stage, floats, params)
		}
	}
	check("packed")
	// Mutate every parameter, as an optimiser step would: BumpVersion first,
	// which detaches the clone from src and repoints its headers' Data.
	ps.BumpVersion()
	for _, name := range ps.Names() {
		m := ps.Get(name)
		for i := range m.Data {
			m.Data[i] += 0.25
		}
	}
	check("after a write")
	for _, name := range ps.Names() {
		if &ps.Get(name).Data[0] == &src.Get(name).Data[0] {
			t.Fatalf("%s: the written clone still shares its source's floats", name)
		}
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
