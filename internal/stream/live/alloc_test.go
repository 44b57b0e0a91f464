package live

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/mat"
	"aovlis/internal/serve"
	"aovlis/internal/wal"
	"aovlis/internal/wire"
	"aovlis/internal/wire/wiretest"
)

// liveStream is a deterministic stream of probability-vector actions and
// audience features at the trained template's dims (16, 6).
func liveStream(seed int64, n int) (actions, audience [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		f := make([]float64, 16)
		f[(i/4)%6] = 1
		for j := range f {
			f[j] += 0.02 + 0.01*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, 6)
		for j := range a {
			a[j] = 0.3 + 0.03*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}
	return actions, audience
}

// TestLiveSteadyStateAllocs is TestPumpSteadyStateAllocs over the live
// plane, with the journal on: 4 channels × 2 000 observations, each a
// WebSocket message from a live.Dial client, through IngestHandler into a
// pool with a WAL, each decision a message back. Once warm — resume rings
// full, detectors at their widest batch — a segment costs no heap
// allocation anywhere in the process, clients included: frames are read
// into and written from per-connection buffers, the WAL encodes into its
// own buffer, and the ring keeps the decision rather than a copy of its
// line.
//
// The window opens at a quiet point: every sender stops after warm
// messages, and once each channel has read its warm decisions the runtime's
// sudog caches are filled (warmSudogs) before the count starts. The
// pumps' blocking selects take their sudogs from those caches; left cold,
// the runtime allocates them on demand, a burst of up to a hundred that
// lands in the window about one run in ten.
func TestLiveSteadyStateAllocs(t *testing.T) {
	const (
		channels = 4
		lines    = 2000
		warm     = 500
		ringCap  = 256 // full well before warm
		// warmLanes is the widest batch, 16, past the template's q = 4.
		warmLanes = 16 + 4
	)
	cfg := aovlis.DefaultConfig(16, 6)
	cfg.HiddenI, cfg.HiddenA = 12, 8
	cfg.SeqLen = 4
	cfg.Epochs = 4
	trainA, trainB := liveStream(7, 90)
	tmpl, err := aovlis.Train(trainA, trainB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acts, auds := liveStream(11, 64)
	msgs := make([][]byte, len(acts))
	for i := range acts {
		line := wire.AppendObservation(nil, acts[i], auds[i])
		msgs[i] = line[:len(line)-1]
	}

	pool, err := serve.NewDetectorPool(serve.Config{Shards: 2, QueueDepth: 64, Policy: serve.Block, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ids := []string{"a", "b", "c", "d"}
	for _, id := range ids {
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := det.ObserveBatch(acts[:warmLanes], auds[:warmLanes], make([]aovlis.Result, warmLanes)); err != nil {
			t.Fatal(err)
		}
		if err := pool.Attach(id, det); err != nil {
			t.Fatal(err)
		}
	}
	journal, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	pool.AttachJournal(journal, nil)
	hub := NewHub(HubConfig{RingCap: ringCap})
	defer hub.Close()
	srv := wiretest.NewServer(t, &IngestHandler{Pool: pool, Hub: hub, Window: 16})

	var (
		before, after runtime.MemStats
		wg            sync.WaitGroup
		atWarm        sync.WaitGroup // every channel has read its warm decisions
		resume        = make(chan struct{})
	)
	atWarm.Add(channels)
	deadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		conn, _, err := Dial(srv.URL+"/live/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetReadDeadline(deadline)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				if i == warm {
					<-resume
				}
				if err := conn.WriteMessage(OpText, msgs[i%len(msgs)]); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
			}
		}()
		go func(id string) {
			defer wg.Done()
			k := 1
			defer func() {
				if k <= warm {
					atWarm.Done() // failed before the warm mark
				}
			}()
			for ; k <= lines; k++ {
				if _, _, err := conn.ReadMessage(); err != nil {
					t.Errorf("channel %s decision %d: %v", id, k, err)
					conn.Close()
					return
				}
				if k == warm {
					atWarm.Done()
				}
			}
		}(id)
	}
	atWarm.Wait()
	warmSudogs()
	runtime.ReadMemStats(&before)
	close(resume)
	wg.Wait()
	runtime.ReadMemStats(&after)
	if t.Failed() {
		return
	}
	for _, id := range ids {
		if st, _ := pool.Stats(id); st.Observed != lines+warmLanes || st.Errors != 0 {
			t.Fatalf("channel %s: %+v, want %d scored", id, st, lines+warmLanes)
		}
		if floor := hub.ChannelFloor(id); floor != lines {
			t.Fatalf("channel %s: ring floor %d, want %d", id, floor, lines)
		}
	}
	segs := float64(channels * (lines - warm))
	perSeg := float64(after.Mallocs-before.Mallocs) / segs
	t.Logf("%d allocations over %.0f warm segments: %.4f per segment", after.Mallocs-before.Mallocs, segs, perSeg)
	if perSeg >= 0.01 {
		t.Fatalf("a warm live segment allocates %.4f times from message to decision, want < 0.01", perSeg)
	}
}

// warmSudogs fills the runtime's sudog caches: a goroutine parked in a
// select holds a sudog per case, from its P's cache, refilled from a
// central one, or else allocated. It garbage-collects first, since a cycle
// empties the central cache, then parks 256 goroutines on four cases each
// and releases them, so about a thousand sudogs wait in the caches for the
// window's selects to take.
func warmSudogs() {
	runtime.GC()
	const n = 256
	stop := make(chan struct{})
	var parked, done sync.WaitGroup
	parked.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			parked.Done()
			select {
			case <-stop:
			case <-stop:
			case <-stop:
			case <-stop:
			}
		}()
	}
	parked.Wait()
	time.Sleep(10 * time.Millisecond) // the last ones reach their select
	close(stop)
	done.Wait()
}
