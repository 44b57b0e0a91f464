// Command aovlis trains an AOVLIS detector on a synthetic live social video
// stream and monitors a second stream for anomalies, printing one line per
// detection — the end-to-end "monitor a channel" workflow of the paper's
// introduction.
//
// Usage:
//
//	aovlis -preset INF -train-sec 420 -monitor-sec 420
//	aovlis -preset TWI -save model.bin        # persist the trained detector
//	aovlis -load model.bin -preset TWI        # reuse it
package main

import (
	"flag"
	"fmt"
	"os"

	"aovlis"
	"aovlis/internal/dataset"
	"aovlis/internal/evalx"
	"aovlis/internal/synth"
)

func main() {
	var (
		presetName = flag.String("preset", "INF", "stream preset: INF, SPE, TED or TWI")
		trainSec   = flag.Int("train-sec", 420, "training stream length (seconds)")
		monitorSec = flag.Int("monitor-sec", 420, "monitored stream length (seconds)")
		classes    = flag.Int("classes", 48, "action feature classes (d1)")
		epochs     = flag.Int("epochs", 10, "training epochs")
		seed       = flag.Int64("seed", 1, "random seed")
		savePath   = flag.String("save", "", "save the trained detector to this file")
		loadPath   = flag.String("load", "", "load a detector instead of training")
		verbose    = flag.Bool("v", false, "print every segment, not only anomalies")
	)
	flag.Parse()

	if err := run(*presetName, *trainSec, *monitorSec, *classes, *epochs, *seed, *savePath, *loadPath, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "aovlis:", err)
		os.Exit(1)
	}
}

func run(presetName string, trainSec, monitorSec, classes, epochs int, seed int64, savePath, loadPath string, verbose bool) error {
	preset, err := synth.PresetByName(presetName)
	if err != nil {
		return err
	}
	dcfg := dataset.DefaultConfig(preset)
	dcfg.TrainSec, dcfg.TestSec = trainSec, monitorSec
	dcfg.Classes = classes
	dcfg.Seed = seed
	fmt.Printf("building %s streams (train %ds, monitor %ds)...\n", preset.Name, trainSec, monitorSec)
	ds, err := dataset.Build(dcfg)
	if err != nil {
		return err
	}

	var det *aovlis.Detector
	if loadPath != "" {
		f, err := os.Open(loadPath)
		if err != nil {
			return err
		}
		defer f.Close()
		det, err = aovlis.Load(f)
		if err != nil {
			return err
		}
		fmt.Printf("loaded detector (τ = %.4f)\n", det.Tau())
	} else {
		cfg := aovlis.DefaultConfig(classes, dcfg.Audience.Dim())
		cfg.Epochs = epochs
		cfg.Seed = seed
		fmt.Printf("training CLSTM (%d epochs, %d sequences)...\n", epochs, len(ds.TrainSamples))
		det, err = aovlis.Train(ds.TrainActions, ds.TrainAudience, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("trained: %d parameters, τ = %.4f\n", det.Model().NumParams(), det.Tau())
	}

	if savePath != "" {
		f, err := os.Create(savePath)
		if err != nil {
			return err
		}
		if err := det.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("saved detector to %s\n", savePath)
	}

	fmt.Printf("monitoring %d segments...\n", len(ds.TestActions))
	var scores []float64
	var labels []bool
	detected, truePos := 0, 0
	for i := range ds.TestActions {
		res, err := det.Observe(ds.TestActions[i], ds.TestAudience[i])
		if err != nil {
			return err
		}
		if res.Warmup {
			continue
		}
		scores = append(scores, res.Score)
		labels = append(labels, ds.TestLabels[i])
		if res.Anomaly {
			detected++
			if ds.TestLabels[i] {
				truePos++
			}
			marker := " "
			if ds.TestLabels[i] {
				marker = "*"
			}
			fmt.Printf("  ANOMALY%s segment %4d  t=%6.1fs  score %.4f  via %s\n",
				marker, i, float64(i), res.Score, res.Path)
		} else if verbose {
			fmt.Printf("  normal  segment %4d  score %.4f  via %s\n", i, res.Score, res.Path)
		}
	}

	auroc, err := evalx.AUROC(scores, labels)
	if err != nil {
		fmt.Printf("done: %d anomalies flagged (AUROC unavailable: %v)\n", detected, err)
		return nil
	}
	fmt.Printf("done: %d flagged (%d on labelled anomalies), AUROC %.3f\n", detected, truePos, auroc)
	return nil
}
