package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/mat"
)

// fakeDetector is a controllable serve.Detector. Its plain fields are safe
// because the pool confines each detector to one shard worker, and tests
// only read them after Close (which happens-after the workers exit).
type fakeDetector struct {
	delay        time.Duration
	warmLeft     int
	anomalyEvery int
	failEvery    int
	calls        int
}

func (f *fakeDetector) Observe(action, audience []float64) (aovlis.Result, error) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.calls++
	if f.failEvery > 0 && f.calls%f.failEvery == 0 {
		return aovlis.Result{}, errors.New("fake failure")
	}
	if f.warmLeft > 0 {
		f.warmLeft--
		return aovlis.Result{Warmup: true}, nil
	}
	if f.anomalyEvery > 0 && f.calls%f.anomalyEvery == 0 {
		return aovlis.Result{Anomaly: true, Score: 1, Exact: true, Path: "exact"}, nil
	}
	return aovlis.Result{Score: 0.1, Exact: true, Path: "exact"}, nil
}

func newTestPool(t *testing.T, cfg Config) *DetectorPool {
	t.Helper()
	p, err := NewDetectorPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{Shards: 0, QueueDepth: 1},
		{Shards: 1, QueueDepth: 0},
		{Shards: 1, QueueDepth: 1, Policy: OverflowPolicy(9)},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]OverflowPolicy{"block": Block, "drop": DropNewest} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Fatalf("String() = %q, want %q", got.String(), name)
		}
	}
	if _, err := ParsePolicy("yolo"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestPoolConcurrentChannels hammers 12 channels from 12 goroutines (run
// under -race): every observation must be scored exactly once, counters
// must add up, and each confined detector must have seen exactly its own
// channel's traffic.
func TestPoolConcurrentChannels(t *testing.T) {
	const (
		channels = 12
		perChan  = 200
		warm     = 5
	)
	p := newTestPool(t, Config{Shards: 4, QueueDepth: 16, Policy: Block})
	fakes := make(map[string]*fakeDetector, channels)
	for i := 0; i < channels; i++ {
		id := fmt.Sprintf("ch%02d", i)
		fakes[id] = &fakeDetector{warmLeft: warm, anomalyEvery: 10}
		if err := p.Attach(id, fakes[id]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, channels)
	for id := range fakes {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			feat := []float64{1, 2}
			for i := 0; i < perChan; i++ {
				if _, err := p.Observe(id, feat, feat); err != nil {
					errc <- fmt.Errorf("%s: %w", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for id := range fakes {
		st, err := p.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Observed != perChan || st.Warmups != warm || st.Dropped != 0 || st.Errors != 0 {
			t.Fatalf("%s stats off: %+v", id, st)
		}
		wantAnomalies := uint64(perChan / 10)
		if st.Detected != wantAnomalies {
			t.Fatalf("%s detected %d, want %d", id, st.Detected, wantAnomalies)
		}
		if st.QueueDepth != 0 {
			t.Fatalf("%s queue depth %d after drain", id, st.QueueDepth)
		}
	}
	ps := p.PoolStats()
	if ps.Channels != channels || ps.Observed != channels*perChan {
		t.Fatalf("pool stats off: %+v", ps)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for id, f := range fakes {
		if f.calls != perChan {
			t.Fatalf("%s detector saw %d calls, want %d", id, f.calls, perChan)
		}
	}
}

// trainTemplate trains one small real detector for integration tests.
// Optional mutators adjust the configuration before training (the tiered
// soak uses one to enable the approximate scoring modes).
func trainTemplate(t testing.TB, mutate ...func(*aovlis.Config)) *aovlis.Detector {
	t.Helper()
	cfg := aovlis.DefaultConfig(16, 6)
	cfg.HiddenI, cfg.HiddenA = 12, 8
	cfg.SeqLen = 4
	cfg.Epochs = 4
	for _, m := range mutate {
		m(&cfg)
	}
	rng := rand.New(rand.NewSource(7))
	var actions, audience [][]float64
	for i := 0; i < 90; i++ {
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
	det, err := aovlis.Train(actions, audience, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestPoolRealDetectors runs one cloned real detector per channel across 8
// concurrent channels (under -race) and checks that every channel, fed the
// same series, produces identical scores — shard confinement must keep the
// per-channel windows fully independent.
func TestPoolRealDetectors(t *testing.T) {
	const channels = 8
	tmpl := trainTemplate(t)
	p := newTestPool(t, Config{Shards: 4, QueueDepth: 32, Policy: Block})
	for i := 0; i < channels; i++ {
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Attach(fmt.Sprintf("live-%d", i), det); err != nil {
			t.Fatal(err)
		}
	}

	// A fixed observation series, including an obvious burst.
	rng := rand.New(rand.NewSource(99))
	var actions, audience [][]float64
	for i := 0; i < 60; i++ {
		f := make([]float64, 16)
		f[(i/4)%6] = 1
		if i == 40 || i == 41 { // visual jump + audience burst
			f = make([]float64, 16)
			f[15] = 1
		}
		for j := range f {
			f[j] += 0.02 + 0.01*rng.Float64()
		}
		mat.Normalize(f)
		a := make([]float64, 6)
		base := 0.3
		if i == 40 || i == 41 {
			base = 0.95
		}
		for j := range a {
			a[j] = base + 0.03*rng.NormFloat64()
		}
		actions = append(actions, f)
		audience = append(audience, a)
	}

	scores := make([][]float64, channels)
	var wg sync.WaitGroup
	errc := make(chan error, channels)
	for c := 0; c < channels; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := fmt.Sprintf("live-%d", c)
			for i := range actions {
				res, err := p.Observe(id, actions[i], audience[i])
				if err != nil {
					errc <- fmt.Errorf("%s: %w", id, err)
					return
				}
				if !res.Warmup {
					scores[c] = append(scores[c], res.Score)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for c := 1; c < channels; c++ {
		if len(scores[c]) != len(scores[0]) {
			t.Fatalf("channel %d scored %d segments, channel 0 scored %d", c, len(scores[c]), len(scores[0]))
		}
		for i := range scores[c] {
			if math.Abs(scores[c][i]-scores[0][i]) > 1e-12 {
				t.Fatalf("channel %d diverged at segment %d: %v vs %v", c, i, scores[c][i], scores[0][i])
			}
		}
	}
	for c := 0; c < channels; c++ {
		st, err := p.Stats(fmt.Sprintf("live-%d", c))
		if err != nil {
			t.Fatal(err)
		}
		if st.Observed != uint64(len(actions)) || st.Warmups != 4 {
			t.Fatalf("channel %d stats off: %+v", c, st)
		}
	}
}

// TestPoolDropPolicy floods a deliberately slow single shard and checks the
// drop accounting: every submission either executes or is counted dropped,
// and nothing blocks.
func TestPoolDropPolicy(t *testing.T) {
	const submissions = 40
	p := newTestPool(t, Config{Shards: 1, QueueDepth: 2, Policy: DropNewest})
	fake := &fakeDetector{delay: 3 * time.Millisecond}
	if err := p.Attach("hot", fake); err != nil {
		t.Fatal(err)
	}
	feat := []float64{1}
	var pending []<-chan Outcome
	dropped := 0
	for i := 0; i < submissions; i++ {
		out, err := p.Submit("hot", feat, feat)
		switch {
		case errors.Is(err, ErrOverloaded):
			if errors.Is(err, ErrRejected) {
				t.Fatalf("a full DropNewest queue reported an admission rejection: %v", err)
			}
			dropped++
		case err != nil:
			t.Fatal(err)
		default:
			pending = append(pending, out)
		}
	}
	if dropped == 0 {
		t.Fatal("a 2-deep queue over a 3ms detector absorbed 40 instant submissions; expected drops")
	}
	for _, out := range pending {
		if o := <-out; o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	st, err := p.Stats("hot")
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != uint64(dropped) {
		t.Fatalf("dropped counter %d, want %d", st.Dropped, dropped)
	}
	if st.Observed != uint64(submissions-dropped) {
		t.Fatalf("observed %d, want %d", st.Observed, submissions-dropped)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", st.QueueDepth)
	}
}

// TestPoolBlockPolicyLossless: under Block, producers outpacing a tiny
// queue are slowed down, never dropped.
func TestPoolBlockPolicyLossless(t *testing.T) {
	const producers, perProducer = 3, 20
	p := newTestPool(t, Config{Shards: 1, QueueDepth: 2, Policy: Block})
	fake := &fakeDetector{delay: time.Millisecond}
	if err := p.Attach("hot", fake); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, producers)
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feat := []float64{1}
			for i := 0; i < perProducer; i++ {
				if _, err := p.Observe("hot", feat, feat); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st, _ := p.Stats("hot")
	if st.Observed != producers*perProducer || st.Dropped != 0 {
		t.Fatalf("lossless ingest violated: %+v", st)
	}
}

// TestPoolErrorAccounting: detector failures land in the error counter and
// surface to the caller, without derailing the shard.
func TestPoolErrorAccounting(t *testing.T) {
	p := newTestPool(t, Config{Shards: 1, QueueDepth: 4, Policy: Block})
	if err := p.Attach("flaky", &fakeDetector{failEvery: 3}); err != nil {
		t.Fatal(err)
	}
	feat := []float64{1}
	failures := 0
	for i := 0; i < 30; i++ {
		if _, err := p.Observe("flaky", feat, feat); err != nil {
			failures++
		}
	}
	if failures != 10 {
		t.Fatalf("saw %d failures, want 10", failures)
	}
	st, _ := p.Stats("flaky")
	if st.Errors != 10 || st.Observed != 20 {
		t.Fatalf("error accounting off: %+v", st)
	}
}

func TestPoolLifecycleErrors(t *testing.T) {
	p := newTestPool(t, Config{Shards: 2, QueueDepth: 2, Policy: Block})
	if err := p.Attach("a", &fakeDetector{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Attach("a", &fakeDetector{}); !errors.Is(err, ErrChannelExists) {
		t.Fatalf("duplicate attach: %v", err)
	}
	if err := p.Attach("", &fakeDetector{}); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := p.Attach("nil", nil); err == nil {
		t.Fatal("nil detector accepted")
	}
	if _, err := p.Submit("ghost", nil, nil); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("unknown channel: %v", err)
	}
	if _, err := p.Stats("ghost"); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("unknown stats: %v", err)
	}
	if err := p.Detach("ghost"); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("unknown detach: %v", err)
	}
	if err := p.Detach("a"); err != nil {
		t.Fatal(err)
	}
	if got := p.Channels(); len(got) != 0 {
		t.Fatalf("channels after detach: %v", got)
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	if err := p.Attach("b", &fakeDetector{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("attach after close: %v", err)
	}
	if _, err := p.Submit("a", nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestPoolCloseDrains: observations queued before Close still execute and
// deliver their outcomes.
func TestPoolCloseDrains(t *testing.T) {
	p, err := NewDetectorPool(Config{Shards: 1, QueueDepth: 8, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeDetector{delay: 2 * time.Millisecond}
	if err := p.Attach("slow", fake); err != nil {
		t.Fatal(err)
	}
	feat := []float64{1}
	var outs []<-chan Outcome
	for i := 0; i < 6; i++ {
		out, err := p.Submit("slow", feat, feat)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if o := <-out; o.Err != nil {
			t.Fatalf("outcome %d: %v", i, o.Err)
		}
	}
	if fake.calls != len(outs) {
		t.Fatalf("detector executed %d of %d queued observations", fake.calls, len(outs))
	}
}

func TestChannelsSorted(t *testing.T) {
	p := newTestPool(t, Config{Shards: 2, QueueDepth: 2, Policy: Block})
	for _, id := range []string{"zeta", "alpha", "mid"} {
		if err := p.Attach(id, &fakeDetector{}); err != nil {
			t.Fatal(err)
		}
	}
	got := p.Channels()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Channels() = %v, want %v", got, want)
		}
	}
}

// TestShardForHighHash attaches ids whose FNV-32a hash has its top bit set
// ("ch-0" hashes to 3 738 019 531). Where int is 32 bits a signed modulus of
// that hash is negative and Attach indexed out of range; run it with
// GOARCH=386 (CI does) to see what it guards.
func TestShardForHighHash(t *testing.T) {
	p := newTestPool(t, Config{Shards: 3, QueueDepth: 2, Policy: Block})
	for _, id := range []string{"ch-0", "ch-1", "ch-2", "ch-3"} {
		h := fnv.New32a()
		h.Write([]byte(id))
		want := p.shards[h.Sum32()%3]
		if got := p.shardFor(id); got != want {
			t.Fatalf("shardFor(%q) is not shard hash mod 3", id)
		}
		if err := p.Attach(id, &fakeDetector{}); err != nil {
			t.Fatal(err)
		}
	}
}
