package serve_test

import (
	"fmt"
	"log"
	"math/rand"

	"aovlis"
	"aovlis/internal/mat"
	"aovlis/internal/serve"
)

// ExampleDetectorPool trains one detector on a normal feature series and
// serves two channels from clones of it through a sharded pool — the
// minimal multi-channel deployment.
func ExampleDetectorPool() {
	// A small normal feature series (in production this comes from the
	// feature pipeline over an anomaly-free stream).
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

	cfg := aovlis.DefaultConfig(16, 6)
	cfg.HiddenI, cfg.HiddenA = 12, 8
	cfg.SeqLen = 4
	cfg.Epochs = 4
	template, err := aovlis.Train(actions, audience, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// One pool, one cloned detector per channel: the pool confines each
	// clone to a shard worker, so submissions may come from any goroutine.
	pool, err := serve.NewDetectorPool(serve.Config{Shards: 2, QueueDepth: 64})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	for _, id := range []string{"gaming", "shopping"} {
		det, err := template.Clone()
		if err != nil {
			log.Fatal(err)
		}
		if err := pool.Attach(id, det); err != nil {
			log.Fatal(err)
		}
	}

	for i := 0; i < 20; i++ {
		for _, id := range []string{"gaming", "shopping"} {
			if _, err := pool.Observe(id, actions[i], audience[i]); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Println("channels:", pool.Channels())
	for _, st := range pool.AllStats() {
		fmt.Printf("%s: observed=%d warmups=%d rejected=%d\n", st.Channel, st.Observed, st.Warmups, st.Rejected)
	}
	// Output:
	// channels: [gaming shopping]
	// gaming: observed=20 warmups=4 rejected=0
	// shopping: observed=20 warmups=4 rejected=0
}
