package aovlis_test

import (
	"fmt"
	"sync"
	"testing"

	"aovlis"
	"aovlis/internal/dataset"
	"aovlis/internal/serve"
	"aovlis/internal/synth"
	"aovlis/internal/update"
)

// TestTrainersBoundedByShards drives six updating clones of one template
// over a two-shard DetectorPool, each channel on its own goroutine and each
// retraining several times. A shard runs one channel's segments at a time,
// so at most two retrains overlap, and the configuration's trainer list
// must have made at most two trainers: one per concurrent retrain, not one per
// channel.
func TestTrainersBoundedByShards(t *testing.T) {
	const channels, shards = 6, 2
	dcfg := dataset.DefaultConfig(synth.INF())
	dcfg.TrainSec, dcfg.TestSec = 120, 120
	dcfg.Classes = 12
	dcfg.SeqLen = 4
	ds, err := dataset.Build(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := aovlis.DefaultConfig(dcfg.Classes, dcfg.Audience.Dim())
	cfg.HiddenI, cfg.HiddenA = 8, 6
	cfg.SeqLen = dcfg.SeqLen
	cfg.Epochs = 2
	cfg.EnableUpdate = true
	cfg.Update.MaxBuffer = 8
	cfg.Update.DriftThreshold = 1 // every drift check retrains
	cfg.Update.TrainEpochs = 1
	tmpl, err := aovlis.Train(ds.TrainActions, ds.TrainAudience, cfg)
	if err != nil {
		t.Fatal(err)
	}

	pool, err := serve.NewDetectorPool(serve.Config{Shards: shards, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	updates := make([]int, channels)
	errs := make([]error, channels)
	var wg sync.WaitGroup
	for c := 0; c < channels; c++ {
		id := fmt.Sprintf("ch-%d", c)
		det, err := tmpl.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Attach(id, det); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 3*len(ds.TestActions); i++ {
				k := (i + 7*c) % len(ds.TestActions) // each channel starts elsewhere
				r, err := pool.Observe(id, ds.TestActions[k], ds.TestAudience[k])
				if err != nil {
					errs[c] = err
					return
				}
				if r.Updated {
					updates[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range errs {
		if errs[c] != nil {
			t.Fatalf("channel %d: %v", c, errs[c])
		}
		if updates[c] < 2 {
			t.Fatalf("channel %d retrained %d times, want at least 2", c, updates[c])
		}
	}
	if made := update.TrainersMade(tmpl.Model().Config()); made < 1 || made > shards {
		t.Fatalf("%d channels on %d shards made %d trainers, want between 1 and %d", channels, shards, made, shards)
	}
}
