package core

// The tape-free inference engine. Training needs gradients; prediction
// only needs the forward arithmetic, so a Model compiles its layers into an
// InferPlan: gate-fused layers (nn.FusedCell / nn.FusedDense). A lane is one
// independent q-step window; Run(lanes) carries all of them through the
// recurrence together, one GEMM per gate over the stacked context rows and
// one fused gate kernel per LSTM step, with zero heap allocations. A single
// prediction is the one-lane call of the same body.
//
// Bit contract: every output is one ascending-k accumulator per (lane,
// output) with the bias added after the full product, and each lane reads
// only its own rows, so a lane's prediction does not depend on how many
// lanes ran beside it and equals the tape forward pass bit for bit
// (TestInferPlanGoldenEquivalence, TestPredictBatchBitIdentical).
//
// Weights: the plan holds none. Its fused layers read the model's
// parameter matrices through the ParamSet's own headers, so every parameter
// mutation (optimiser step, merge, load) is what the next prediction
// reads — there is no packed snapshot to go stale and nothing to repack.
// A clone's plan reads the clone's headers, which alias the source's arrays
// until one side writes (nn.ParamSet.Clone).
//
// State: the plan holds none either. The lane-stacked state a run writes,
// sized by its batch width, is a lane set (Lanes) the run borrows from a
// free list shared by every model of the configuration, so a model costs
// its headers, and the process one set per prediction running at once.

import (
	"fmt"
	"sync/atomic"

	"aovlis/internal/mat"
	"aovlis/internal/nn"
)

// ctxSrc names one part of a cell's gate-context concatenation: either the
// previous-step hidden state of a stream or the current input of a stream.
// The concat order mirrors the tape forward pass's ConcatCols exactly.
type ctxSrc struct {
	hidden bool // previous hidden state (true) or current input (false)
	index  int  // stream index
}

// planSpec declares one coupled stream of a model: its cell, decoder,
// gate-context layout and the reconstruction loss it trains under (the
// training engine's concern; prediction ignores it). A layout may couple
// any number of streams; the CLSTM's two come from Model.specs.
type planSpec struct {
	cell *nn.LSTMCell
	dec  *nn.Dense
	ctx  []ctxSrc
	loss nn.LossKind
}

// planStream is the compiled runtime form of a planSpec: its fused layers
// and gate-context layout.
type planStream struct {
	cell *nn.FusedCell
	dec  *nn.FusedDense
	ctx  []ctxSrc
}

// InferPlan is a compiled, forward-only view of a model's parameters. It
// holds no lane state: a run borrows a lane set (see Lanes).
type InferPlan struct {
	seqLen  int
	streams []planStream
}

// compileInferPlan fuses the specs' layers over ps. Compilation, making a
// lane set and growing one are the only allocating phases of the engine;
// Run is allocation-free.
func compileInferPlan(ps *nn.ParamSet, seqLen int, specs []planSpec) *InferPlan {
	p := &InferPlan{seqLen: seqLen, streams: make([]planStream, len(specs))}
	for i, sp := range specs {
		p.streams[i] = planStream{cell: sp.cell.Pack(ps), dec: sp.dec.Pack(ps), ctx: sp.ctx}
	}
	return p
}

// laneState is one stream's lane-stacked state in a lane set: row l of
// every matrix is lane l.
type laneState struct {
	// hidden, ctxDim and dim are the cell's state and context widths and
	// the decoder's output width, which is the stream's input width too.
	hidden, ctxDim, dim int

	// h/c are the live recurrent state; hNext/cNext receive the
	// simultaneous update and are swapped in after every stream has read
	// the previous step's state.
	h, c, hNext, cNext *mat.Matrix
	ctxBuf             *mat.Matrix // lanes × cell.CtxDim
	pre                *mat.Matrix // lanes × 4·cell.Hidden packed preactivations
	out, decPre        *mat.Matrix // lanes × dec.Out predictions and their preactivations

	// seqs[l] is lane l's input sequence for this stream: bound before
	// Run, dropped by it.
	seqs [][][]float64
}

// matrices lists the stream's lane matrices.
func (st *laneState) matrices() [8]*mat.Matrix {
	return [8]*mat.Matrix{st.h, st.c, st.hNext, st.cNext, st.ctxBuf, st.pre, st.out, st.decPre}
}

// alloc gives the state capLanes lanes.
func (st *laneState) alloc(capLanes int) {
	hn := st.hidden
	st.h = mat.New(capLanes, hn)
	st.c = mat.New(capLanes, hn)
	st.hNext = mat.New(capLanes, hn)
	st.cNext = mat.New(capLanes, hn)
	st.ctxBuf = mat.New(capLanes, st.ctxDim)
	st.pre = mat.New(capLanes, 4*hn)
	st.out = mat.New(capLanes, st.dim)
	st.decPre = mat.New(capLanes, st.dim)
	st.seqs = make([][][]float64, capLanes)
}

// Lanes is a lane set: everything a prediction sizes by its batch width —
// each stream's lane-stacked state, and the window rows a caller lays a
// stream out on (Rows). A model owns none: the models of one Config borrow
// sets from one free list (Model.TakeLanes, Lanes.Put), so a process
// holds as many as it ran predictions at once, however many models it
// serves. A set keeps the results of the last run on it until the next;
// it is not safe for concurrent use.
type Lanes struct {
	list     *laneList
	capLanes int
	streams  []laneState
	// rows[k] are the window rows of stream k, dim values each.
	rows [][][]float64
}

// newLanes makes a set for p's streams, to go back on list, as wide as the
// widest of the list's sets.
func (p *InferPlan) newLanes(list *laneList) *Lanes {
	ls := &Lanes{list: list, streams: make([]laneState, len(p.streams)), rows: make([][][]float64, len(p.streams))}
	for i, ps := range p.streams {
		ls.streams[i] = laneState{hidden: ps.cell.Hidden, ctxDim: ps.cell.CtxDim, dim: ps.dec.Out}
	}
	ls.reserve(1)
	return ls
}

// reserve makes room for `lanes` lanes. A set grows by reallocation, at
// least doubling and at once to the widest of its list's sets, and never
// shrinks: a run views the first rows.
func (ls *Lanes) reserve(lanes int) {
	if lanes <= ls.capLanes {
		return
	}
	ls.capLanes = widen(&ls.list.lanes, max(lanes, 2*ls.capLanes))
	for i := range ls.streams {
		ls.streams[i].alloc(ls.capLanes)
	}
}

// Rows returns n window rows of the action and of the audience stream, for
// a caller that lays a stream's history and lanes out one row per segment
// (Model.PredictWindows reads them). The rows are the set's, their values
// the borrower's until it puts the set back. They grow like the lanes (see
// reserve) and never shrink.
func (ls *Lanes) Rows(n int) (act, aud [][]float64) {
	if n > len(ls.rows[0]) {
		n := widen(&ls.list.rows, max(n, 2*len(ls.rows[0])))
		for k := range ls.rows {
			dim := ls.streams[k].dim
			grown := make([][]float64, n)
			data := make([]float64, (n-len(ls.rows[k]))*dim)
			for i := copy(grown, ls.rows[k]); i < n; i++ {
				grown[i], data = data[:dim:dim], data[dim:]
			}
			ls.rows[k] = grown
		}
	}
	return ls.rows[0][:n], ls.rows[1][:n]
}

// Prediction returns lane l's decoded predictions of the set's last run,
// views of its state: read them before the set's next run.
func (ls *Lanes) Prediction(l int) (fhat, ahat []float64) {
	return ls.streams[0].out.Row(l), ls.streams[1].out.Row(l)
}

// Hidden returns lane l's final LSTM_I hidden state of the set's last run
// — the state its decoder read — or nil when that run had no lane l. The
// slice is the set's: read it before the set's next run.
func (ls *Lanes) Hidden(l int) []float64 {
	st := &ls.streams[0]
	if l < 0 || l >= st.h.Rows {
		return nil
	}
	return st.h.Row(l)
}

// laneList is the free list of one Config's lane sets, with the most lanes
// and window rows any of them has held. A set made or grown later is made
// that wide at once, so a set that joins the list while batches run — a
// second shard's — grows once, not width by width.
type laneList struct {
	FreeList[Lanes]
	lanes, rows atomic.Int64
}

// laneLists holds the lane-set list of every Config a model has run with.
var laneLists PerConfig[laneList]

// LaneSetsMade reports how many lane sets the models of cfg have made.
func LaneSetsMade(cfg Config) int { return laneLists.For(cfg).Made() }

// LaneSetWidth reports the most lanes a lane set of cfg's models holds.
func LaneSetWidth(cfg Config) int { return int(laneLists.For(cfg).lanes.Load()) }

// laneList returns the lane-set list of m's configuration, registering the
// configuration on m's first call: a model decoded and dropped unrun — an
// upload a node refuses — leaves nothing in laneLists.
func (m *Model) laneList() *laneList {
	l := m.lanes.Load()
	if l == nil {
		l = laneLists.For(m.cfg)
		m.lanes.Store(l)
	}
	return l
}

// TakeLanes borrows a lane set from the list of the model's configuration,
// making one when the list is empty. Give it back with Put.
func (m *Model) TakeLanes() *Lanes {
	l := m.laneList()
	if ls := l.Take(); ls != nil {
		return ls
	}
	return m.plan.newLanes(l)
}

// ReserveLanes readies the model's configuration for `sets` runs at once,
// each predicting up to `lanes` lanes over the SeqLen + batch rows of a
// batch of segments, making and widening sets only while its list has fewer
// or narrower ones.
func (m *Model) ReserveLanes(sets, lanes, batch int) {
	l, rows := m.laneList(), m.cfg.SeqLen+batch
	if l.Made() >= sets && l.lanes.Load() >= int64(lanes) && l.rows.Load() >= int64(rows) {
		return
	}
	for n := max(sets, l.Made()); n > 0; n-- {
		ls := m.TakeLanes()
		defer ls.Put() // held until the end, so every take gets another set
		ls.reserve(lanes)
		ls.Rows(rows)
	}
}

// Put returns the set to the list TakeLanes took it from. The borrower
// must not touch the set, nor slices it returned, afterwards.
func (ls *Lanes) Put() { ls.list.Put(ls) }

// Run executes the fused forward recurrence over the first `lanes` lanes
// of ls (at most its reserved capacity): stream k's seqs[l][t] is lane l's
// input feature at step t, and row l of its out matrix receives lane l's
// decoded prediction. Shapes are the caller's responsibility (models
// validate before binding). Run allocates nothing and drops the bound
// sequences before returning.
func (p *InferPlan) Run(ls *Lanes, lanes int) {
	for i := range ls.streams {
		st := &ls.streams[i]
		// View the first `lanes` rows of the full-capacity backing arrays.
		for _, m := range st.matrices() {
			m.Rows = lanes
			m.Data = m.Data[:lanes*m.Cols]
		}
		st.h.Zero()
		st.c.Zero()
	}
	for t := 0; t < p.seqLen; t++ {
		for i := range p.streams {
			ps, st := &p.streams[i], &ls.streams[i]
			// Gate context, per lane: the same [h..., input] concatenation
			// the tape builds with ConcatCols, reading every stream's
			// PREVIOUS hidden state so all streams update simultaneously.
			for l := 0; l < lanes; l++ {
				row, off := st.ctxBuf.Row(l), 0
				for _, src := range ps.ctx {
					from := &ls.streams[src.index]
					part := from.seqs[l][t]
					if src.hidden {
						part = from.h.Row(l)
					}
					off += copy(row[off:], part)
				}
			}
			ps.cell.StepBatch(st.hNext, st.cNext, st.pre, st.ctxBuf, st.c)
		}
		for i := range ls.streams {
			st := &ls.streams[i]
			st.h, st.hNext = st.hNext, st.h
			st.c, st.cNext = st.cNext, st.c
		}
	}
	for i := range p.streams {
		st := &ls.streams[i]
		p.streams[i].dec.ApplyBatch(st.out, st.decPre, st.h)
		// Don't pin the caller's slices beyond the call.
		clear(st.seqs[:lanes])
	}
}

// specs builds the plan layout of the 2-stream CLSTM under its coupling
// mode: stream 0 is LSTM_I (action), stream 1 is LSTM_A (audience). The ctx
// orders mirror the ConcatCols calls of the reference tape (tape_test.go).
func (m *Model) specs() []planSpec {
	h0 := ctxSrc{hidden: true, index: 0}
	h1 := ctxSrc{hidden: true, index: 1}
	in0 := ctxSrc{index: 0}
	in1 := ctxSrc{index: 1}
	var ctxI, ctxA []ctxSrc
	switch m.cfg.Coupling {
	case CouplingFull:
		ctxI = []ctxSrc{h0, h1, in0}
		ctxA = []ctxSrc{h0, h1, in1}
	case CouplingOneWay:
		ctxI = []ctxSrc{h0, in0}
		ctxA = []ctxSrc{h0, h1, in1}
	case CouplingNone:
		ctxI = []ctxSrc{h0, in0}
		ctxA = []ctxSrc{h1, in1}
	default:
		panic(fmt.Sprintf("core: unknown coupling %d", m.cfg.Coupling))
	}
	return []planSpec{
		{cell: m.cellI, dec: m.decI, ctx: ctxI, loss: m.cfg.Loss},
		{cell: m.cellA, dec: m.decA, ctx: ctxA, loss: nn.LossL2}, // Eq. 13's MSE
	}
}
