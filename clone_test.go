package aovlis

// Copy-on-write clones (ISSUE 17): Detector.Clone shares the template's
// weights until a clone writes its own. These tests pin that the sharing is
// invisible (a clone is a Load(Save()) detector, bit for bit, through
// retrains), safe (clones on their own goroutines never see each other's
// writes, and the template never changes), and worth it (a clone retains
// kilobytes, not the model).

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"aovlis/internal/core"
	"aovlis/internal/dataset"
	"aovlis/internal/synth"
)

// regimeStream is an EnableUpdate template trained on INF plus a stream that
// leaves the INF regime for TED halfway, so drift checks fire and retrain.
type regimeStream struct {
	det        *Detector
	acts, auds [][]float64
}

var regimeFixture struct {
	once sync.Once
	rs   regimeStream
	err  error
}

// regimeSwitchStream builds the fixture once per test binary: 2000
// segments, the first half cycling INF's test series, the second half TED's.
func regimeSwitchStream(t *testing.T) regimeStream {
	t.Helper()
	regimeFixture.once.Do(func() { regimeFixture.rs, regimeFixture.err = buildRegimeStream(2000) })
	if regimeFixture.err != nil {
		t.Fatal(regimeFixture.err)
	}
	return regimeFixture.rs
}

func buildRegimeStream(n int) (regimeStream, error) {
	build := func(p synth.Preset) (*dataset.Dataset, error) {
		dcfg := dataset.DefaultConfig(p)
		dcfg.TrainSec, dcfg.TestSec = 200, 200
		dcfg.Classes = 16
		dcfg.SeqLen = 6
		return dataset.Build(dcfg)
	}
	inf, err := build(synth.INF())
	if err != nil {
		return regimeStream{}, err
	}
	ted, err := build(synth.TED())
	if err != nil {
		return regimeStream{}, err
	}
	cfg := DefaultConfig(16, inf.Config.Audience.Dim())
	cfg.HiddenI, cfg.HiddenA = 12, 8
	cfg.SeqLen = 6
	cfg.Epochs = 3
	cfg.EnableUpdate = true
	cfg.Update.MaxBuffer = 120
	cfg.Update.TrainEpochs = 2
	cfg.Update.DriftThreshold = 0.9
	det, err := Train(inf.TrainActions, inf.TrainAudience, cfg)
	if err != nil {
		return regimeStream{}, err
	}
	rs := regimeStream{det: det}
	for i := 0; i < n; i++ {
		src := inf
		if i >= n/2 {
			src = ted
		}
		k := i % len(src.TestActions)
		rs.acts = append(rs.acts, src.TestActions[k])
		rs.auds = append(rs.auds, src.TestAudience[k])
	}
	return rs, nil
}

func saveBytes(t *testing.T, d *Detector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func snapshotBytes(t *testing.T, d *Detector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func countUpdates(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Updated {
			n++
		}
	}
	return n
}

// TestCloneMatchesSaveLoad is the invisibility contract: a copy-on-write
// clone and a detector decoded from the template's Save bytes — what Clone
// was before — produce the same Result bits on a 2000-segment INF→TED stream
// through at least two retrains, and the same Snapshot bytes at the end.
func TestCloneMatchesSaveLoad(t *testing.T) {
	rs := regimeSwitchStream(t)
	saved := saveBytes(t, rs.det)
	for _, mode := range []struct {
		name   string
		tiered bool
	}{{"exact", false}, {"tiered", true}} {
		t.Run(mode.name, func(t *testing.T) {
			cow, err := rs.det.Clone()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(saved))
			if err != nil {
				t.Fatal(err)
			}
			if !cow.model.Params().Shared() || loaded.model.Params().Shared() {
				t.Fatal("want the clone sharing the template's weights and the loaded detector owning its own")
			}
			for _, d := range []*Detector{cow, loaded} {
				if err := d.SetScoringMode(false, mode.tiered); err != nil {
					t.Fatal(err)
				}
			}
			// One serial, one in uneven batches: a clone's lane scratch grows
			// on its own plan, never on the template's.
			got := observeBatched(t, cow, rs.acts, rs.auds, []int{5, 1, 16, 3})
			want := observeSerially(t, loaded, rs.acts, rs.auds)
			requireSameResults(t, want, got)
			if n := countUpdates(want); n < 2 {
				t.Fatalf("stream retrained %d times, want at least 2", n)
			}
			if cow.model.Params().Shared() {
				t.Fatal("the clone retrained but still shares the template's weights")
			}
			if !bytes.Equal(snapshotBytes(t, cow), snapshotBytes(t, loaded)) {
				t.Fatal("clone and Load(Save()) detector snapshot to different bytes after the same stream")
			}
		})
	}
	if !bytes.Equal(saved, saveBytes(t, rs.det)) {
		t.Fatal("the template's Save bytes changed while its clones retrained")
	}
}

// TestSharedWeightsIsolation runs eight clones of one EnableUpdate template
// on eight goroutines (run it under -race). Two stream across the regime
// switch and retrain mid-run while six keep reading the shared weights, one
// of those tiered; the readers hold their second half back until
// a writer has retrained, so reads of the shared arrays overlap both the
// writers' detach and their later retrains. Every clone must reproduce its
// solo run, the readers must end still sharing, and the template's bytes
// must not move.
func TestSharedWeightsIsolation(t *testing.T) {
	rs := regimeSwitchStream(t)
	// The first drift check of a fresh clone finds an empty history and
	// cannot fire, so 300 segments never retrain and 600 across the switch do.
	writerStream := regimeStream{acts: rs.acts[700:1300], auds: rs.auds[700:1300]}
	readerStream := regimeStream{acts: rs.acts[:300], auds: rs.auds[:300]}
	saved := saveBytes(t, rs.det)

	const clones, writers = 8, 2
	// run streams clone i's input through d in batches of 1 + i (so the
	// clones' plans grow to different lane counts), calling step before each.
	run := func(i int, d *Detector, step func(done int, updated bool)) ([]Result, error) {
		s := readerStream
		if i < writers {
			s = writerStream
		}
		if i == writers {
			if err := d.SetScoringMode(false, true); err != nil {
				return nil, err
			}
		}
		out := make([]Result, len(s.acts))
		updated := false
		for at := 0; at < len(s.acts); at += 1 + i {
			step(at, updated)
			end := min(at+1+i, len(s.acts))
			if _, err := d.ObserveBatch(s.acts[at:end], s.auds[at:end], out[at:end]); err != nil {
				return nil, err
			}
			updated = updated || countUpdates(out[at:end]) > 0
		}
		return out, nil
	}

	// Solo reference runs, one at a time, each on a detector decoded from
	// the saved bytes.
	want := make([][]Result, clones)
	for i := range want {
		d, err := Load(bytes.NewReader(saved))
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = run(i, d, func(int, bool) {}); err != nil {
			t.Fatal(err)
		}
	}
	if w, r := countUpdates(want[0]), countUpdates(want[writers]); w < 2 || r != 0 {
		t.Fatalf("want the writers' stream to retrain twice and the readers' never: %d / %d updates", w, r)
	}

	dets := make([]*Detector, clones)
	got := make([][]Result, clones)
	errs := make([]error, clones)
	retrained := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for i := 0; i < clones; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			signal := func() { once.Do(func() { close(retrained) }) }
			if i < writers {
				defer signal() // a failing writer must not strand the readers
			}
			// Cloning is itself concurrent: the template is only read.
			d, err := rs.det.Clone()
			if err != nil {
				errs[i] = err
				return
			}
			dets[i] = d
			half := false
			got[i], errs[i] = run(i, d, func(done int, updated bool) {
				switch {
				case i < writers && updated:
					signal()
				case i >= writers && !half && done >= len(readerStream.acts)/2:
					half = true
					<-retrained
				}
			})
		}(i)
	}
	wg.Wait()
	for i := 0; i < clones; i++ {
		if errs[i] != nil {
			t.Fatalf("clone %d: %v", i, errs[i])
		}
		requireSameResults(t, want[i], got[i])
		if shared := dets[i].model.Params().Shared(); shared != (i >= writers) {
			t.Errorf("clone %d shares the template's weights = %v after its run", i, shared)
		}
	}
	if !bytes.Equal(saved, saveBytes(t, rs.det)) {
		t.Fatal("the template's Save bytes changed while its clones ran")
	}
}

// TestTrainAfterCloneLeavesClonesAlone closes the stale-view trap: a model
// whose training engine was compiled (and has run backward) before it was
// cloned from keeps training correctly after the clone — on its own copy of
// the weights, matching a twin that was never cloned — and the clone's
// predictions do not move.
func TestTrainAfterCloneLeavesClonesAlone(t *testing.T) {
	rs := regimeSwitchStream(t)
	samples, err := core.BuildSamples(rs.acts[:40], rs.auds[:40], rs.det.cfg.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := rs.det.model.Config()
	newTrained := func() *core.Model {
		m, err := core.NewModel(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := m.TrainStep(&samples[i]); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	predict := func(m *core.Model) []float64 {
		f, a, err := m.Predict(&samples[20])
		if err != nil {
			t.Fatal(err)
		}
		return append(f, a...)
	}
	src, twin := newTrained(), newTrained()
	clone := src.Clone()
	before := predict(clone)
	for i := 5; i < 15; i++ {
		ls, err := src.TrainStep(&samples[i])
		if err != nil {
			t.Fatal(err)
		}
		lt, err := twin.TrainStep(&samples[i])
		if err != nil {
			t.Fatal(err)
		}
		if ls != lt {
			t.Fatalf("step %d: cloned-from model trains to loss %v, its never-cloned twin to %v", i, ls, lt)
		}
	}
	if got, want := predict(src), predict(twin); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("a model trained after being cloned from diverged from its never-cloned twin")
	}
	if got := predict(clone); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatal("training the source moved its clone's predictions")
	}
	if fmt.Sprint(predict(src)) == fmt.Sprint(before) {
		t.Fatal("training the source changed nothing; the test would pass vacuously")
	}
}

// benchShapeTemplate is an untrained-but-valid detector of the benchmark's
// model shape (48/19 features, hidden 32/16, q 9): footprint depends on the
// shape, not on the weights' values.
func benchShapeTemplate(tb testing.TB) (*Detector, [][]float64, [][]float64) {
	tb.Helper()
	acts, auds := allocSeries(60, 48, 19)
	cfg := DefaultConfig(48, 19)
	cfg.Epochs = 1
	det, err := Train(acts, auds, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return det, acts, auds
}

// retainedPerClone returns the live-heap bytes each of n detectors made by
// mk holds, measured after two collections on both sides.
func retainedPerClone(tb testing.TB, n int, mk func() *Detector) float64 {
	tb.Helper()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	dets := make([]*Detector, n)
	before := heap()
	for i := range dets {
		dets[i] = mk()
	}
	after := heap()
	runtime.KeepAlive(dets)
	return (float64(after) - float64(before)) / float64(n)
}

// TestCloneFootprint gates what a channel costs: a clone of the
// benchmark-shape model retains at most 32 KiB before it scores anything and
// at most 128 KiB once its plan has grown to a 16-lane batch (16 × 5448 B of
// lane scratch), whether the template was trained in this process or loaded
// from a model file (the daemon's two ways to one) — a clone that carried
// the weights would retain 478 KB.
func TestCloneFootprint(t *testing.T) {
	trained, acts, auds := benchShapeTemplate(t)
	loaded, err := Load(bytes.NewReader(saveBytes(t, trained)))
	if err != nil {
		t.Fatal(err)
	}
	const clones = 200
	for _, tmpl := range []struct {
		name string
		det  *Detector
	}{{"trained", trained}, {"loaded", loaded}} {
		mk := func(warm bool) func() *Detector {
			return func() *Detector {
				c, err := tmpl.det.Clone()
				if err != nil {
					t.Fatal(err)
				}
				if warm {
					results := make([]Result, 16)
					for at := 0; at+16 <= 32; at += 16 {
						if _, err := c.ObserveBatch(acts[at:at+16], auds[at:at+16], results); err != nil {
							t.Fatal(err)
						}
					}
				}
				return c
			}
		}
		fresh, warm := retainedPerClone(t, clones, mk(false)), retainedPerClone(t, clones, mk(true))
		t.Logf("%s template: a fresh clone retains %.0f B, one that ran 16-lane batches %.0f B", tmpl.name, fresh, warm)
		if fresh > 32<<10 {
			t.Errorf("%s template: a fresh clone retains %.0f B, want at most %d", tmpl.name, fresh, 32<<10)
		}
		if warm > 128<<10 {
			t.Errorf("%s template: a clone that ran 16-lane batches retains %.0f B, want at most %d", tmpl.name, warm, 128<<10)
		}
	}
}

// TestUpdatingChannelFootprint gates what an updating channel costs once it
// has retrained. A clone of the benchmark-shape model at the paper's update
// operating point (ls = 300) buffers a full cycle, retrains and merges,
// which gives it parameters of its own (149 KB); its plan reads them where
// they are. After that it retains those parameters, the 309 rows its buffer
// pinned (166 KB, now its free list), the emptied buffer and window log, and
// one lane of state: 307 KB, gated at 336 KiB. A plan that packed a copy of
// the weights would add 149 KB.
func TestUpdatingChannelFootprint(t *testing.T) {
	acts, auds := allocSeries(320, 48, 19)
	cfg := DefaultConfig(48, 19)
	cfg.Epochs = 1
	cfg.EnableUpdate = true
	cfg.Update.DriftThreshold = 1 // the first drift check retrains
	cfg.Update.TrainEpochs = 1
	tmpl, err := Train(acts[:60], auds[:60], cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := func() *Detector {
		c, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			r, err := c.Observe(acts[i%len(acts)], auds[i%len(auds)])
			if err != nil {
				t.Fatal(err)
			}
			if r.Updated {
				// One prediction after the merge, on the merged weights.
				if _, err := c.Observe(acts[(i+1)%len(acts)], auds[(i+1)%len(auds)]); err != nil {
					t.Fatal(err)
				}
				return c
			}
		}
	}
	merged() // makes the template's one trainer, which its clones share
	per := retainedPerClone(t, 8, merged)
	t.Logf("an updating clone retains %.0f B after its first merge", per)
	if per > 336<<10 {
		t.Errorf("an updating clone retains %.0f B after its first merge, want at most %d", per, 336<<10)
	}
}
