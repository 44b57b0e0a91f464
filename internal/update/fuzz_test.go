package update

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
)

// fuzzConfig keeps the fuzzed updater's bounds small: a log of at most
// (q+1)·MaxBuffer = 16 rows.
func fuzzConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxBuffer = 4
	cfg.TrainEpochs = 1
	return cfg
}

// updaterStateSeeds are gob encodings of states real updaters hold: fresh,
// history seeded, mid-cycle with buffered windows, and a version 2 Buffer.
func updaterStateSeeds(f *testing.F) [][]byte {
	f.Helper()
	rng := rand.New(rand.NewSource(5))
	m := testModel(f)
	u, err := New(m.Clone(), fuzzConfig())
	if err != nil {
		f.Fatal(err)
	}
	states := []State{u.State()}
	samples := makeSamples(f, rng, 12, 0)
	if err := u.SeedHistory(samples[:4]); err != nil {
		f.Fatal(err)
	}
	states = append(states, u.State())
	for i, s := range samples[4:7] {
		if _, err := u.Observe(s, float64(i%2)); err != nil {
			f.Fatal(err)
		}
	}
	states = append(states, u.State())
	legacy := u.State()
	legacy.Log, legacy.Offsets, legacy.LogEnd = nil, nil, 0
	legacy.Buffer = samples[7:9]
	states = append(states, legacy)
	var seeds [][]byte
	for i, st := range states {
		fresh, err := New(m.Clone(), fuzzConfig())
		if err != nil {
			f.Fatal(err)
		}
		if err := fresh.SetState(st); err != nil {
			f.Fatalf("seed %d is refused: %v", i, err)
		}
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(st); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b.Bytes())
	}
	return seeds
}

// FuzzUpdaterSetState: SetState refuses or accepts any decodable State and
// never panics, and a state it accepted reads back through State and
// restores into a fresh updater to the same bits.
func FuzzUpdaterSetState(f *testing.F) {
	for _, seed := range updaterStateSeeds(f) {
		f.Add(seed)
	}
	m := testModel(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound adversarial allocations, not coverage
		}
		var st State
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&st) != nil {
			return
		}
		u, err := New(m.Clone(), fuzzConfig())
		if err != nil {
			t.Fatal(err)
		}
		if u.SetState(st) != nil {
			return
		}
		got := u.State()
		again, err := New(m.Clone(), fuzzConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := again.SetState(got); err != nil {
			t.Fatalf("the state an accepted restore reads back is refused: %v", err)
		}
		if a, b := encodeState(t, got), encodeState(t, again.State()); !bytes.Equal(a, b) {
			t.Fatal("a state read back and restored again reads back other bits")
		}
		if len(st.Buffer) == 0 {
			if a, b := encodeState(t, st), encodeState(t, got); !bytes.Equal(a, b) {
				t.Fatal("an accepted state reads back other bits than it was restored from")
			}
		}
	})
}

// encodeState is st's gob encoding: equal bytes, equal float64 bits.
func encodeState(t *testing.T, st State) []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(st); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
