package nn

import (
	"math"
	"math/rand"
	"testing"

	"aovlis/internal/mat"
)

// TestStepBatchMatchesStepInto pins a B-lane fused step bit-identical to B
// independent single-lane steps, across lane counts and cell shapes
// (hitting the SIMD column blocks and their tails on machines that have
// the vector kernels, and the portable kernel elsewhere).
func TestStepBatchMatchesStepInto(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dims := range []struct{ ctx, hidden int }{{7, 3}, {56, 16}, {96, 32}} {
		ps := NewParamSet()
		cell := NewLSTMCell(ps, "cell", dims.ctx, dims.hidden, rng)
		fc := cell.Pack(ps)
		for _, lanes := range []int{1, 2, 3, 8} {
			ctx := mat.New(lanes, dims.ctx)
			cPrev := mat.New(lanes, dims.hidden)
			for i := range ctx.Data {
				ctx.Data[i] = rng.NormFloat64()
			}
			for i := range cPrev.Data {
				cPrev.Data[i] = rng.NormFloat64()
			}
			h := mat.New(lanes, dims.hidden)
			cNext := mat.New(lanes, dims.hidden)
			pre := mat.New(lanes, 4*dims.hidden)
			fc.StepBatch(h, cNext, pre, ctx, cPrev)

			wantH := make([]float64, dims.hidden)
			wantC := make([]float64, dims.hidden)
			wantPre := make([]float64, 4*dims.hidden)
			for b := 0; b < lanes; b++ {
				fc.StepInto(wantH, wantC, wantPre, ctx.Row(b), cPrev.Row(b))
				for j := 0; j < dims.hidden; j++ {
					if math.Float64bits(h.At(b, j)) != math.Float64bits(wantH[j]) {
						t.Fatalf("ctx=%d lanes=%d lane %d h[%d]: batch %v, single %v",
							dims.ctx, lanes, b, j, h.At(b, j), wantH[j])
					}
					if math.Float64bits(cNext.At(b, j)) != math.Float64bits(wantC[j]) {
						t.Fatalf("ctx=%d lanes=%d lane %d c[%d]: batch %v, single %v",
							dims.ctx, lanes, b, j, cNext.At(b, j), wantC[j])
					}
				}
			}
		}
	}
}
