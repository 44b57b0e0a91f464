// Quickstart: train an AOVLIS detector on a normal live stream and monitor
// a second stream for anomalies — the smallest end-to-end use of the
// public API.
package main

import (
	"fmt"
	"log"

	"aovlis"
	"aovlis/internal/dataset"
	"aovlis/internal/synth"
)

func main() {
	// 1. Get feature series. In production these come from your own
	//    ingestion pipeline (I3D-style action features + audience comment
	//    features); here the bundled synthetic INF preset provides both.
	cfg := dataset.DefaultConfig(synth.INF())
	cfg.TrainSec, cfg.TestSec = 300, 300
	cfg.Classes = 32
	ds, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train a detector on the normal stream. Train splits off a
	//    validation slice internally and calibrates the anomaly threshold τ.
	dcfg := aovlis.DefaultConfig(32, cfg.Audience.Dim())
	dcfg.Epochs = 8
	det, err := aovlis.Train(ds.TrainActions, ds.TrainAudience, dcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detector ready: %d parameters, τ = %.4f\n", det.Model().NumParams(), det.Tau())

	// 3. Stream the monitored feed segment by segment.
	anomalies := 0
	for i := range ds.TestActions {
		res, err := det.Observe(ds.TestActions[i], ds.TestAudience[i])
		if err != nil {
			log.Fatal(err)
		}
		if res.Warmup {
			continue
		}
		if res.Anomaly {
			anomalies++
			truth := "unlabelled"
			if ds.TestLabels[i] {
				truth = "ground-truth anomaly"
			}
			fmt.Printf("segment %3d: ANOMALY score=%.4f via %s (%s)\n", i, res.Score, res.Path, truth)
		}
	}
	fmt.Printf("flagged %d/%d segments\n", anomalies, det.Observed())
}
