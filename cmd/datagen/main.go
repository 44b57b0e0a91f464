// Command datagen generates a synthetic live social video stream (frames,
// comments, ground-truth anomaly intervals) and writes a summary plus,
// optionally, the extracted feature series as NDJSON observation lines —
// what the AOVLIS pipeline consumes, in the form aovlisd's observe endpoint
// eats.
//
// Usage:
//
//	datagen -preset INF -sec 600
//	datagen -preset TWI -sec 300 -out twi.ndjson
//	curl -N -XPOST --data-binary @twi.ndjson localhost:8080/channels/twi/observe
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"aovlis/internal/feature"
	"aovlis/internal/synth"
	"aovlis/internal/wire"
)

func main() {
	var (
		presetName = flag.String("preset", "INF", "stream preset: INF, SPE, TED or TWI")
		sec        = flag.Int("sec", 600, "stream length in seconds")
		classes    = flag.Int("classes", 48, "action feature classes (d1)")
		seed       = flag.Int64("seed", 1, "random seed")
		anomFree   = flag.Bool("anomaly-free", false, "suppress anomaly injection")
		outPath    = flag.String("out", "", "write the extracted features to this file, one NDJSON observation line per segment")
	)
	flag.Parse()

	if err := run(*presetName, *sec, *classes, *seed, *anomFree, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(presetName string, sec, classes int, seed int64, anomFree bool, outPath string) error {
	preset, err := synth.PresetByName(presetName)
	if err != nil {
		return err
	}
	st, err := synth.Generate(synth.Options{
		Preset: preset, DurationSec: sec, AnomalyFree: anomFree, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s stream: %d s, %d frames, %d comments, %d anomaly intervals\n",
		preset.Name, st.DurationSec, len(st.Frames), len(st.Comments), len(st.AnomalyIntervals))
	for i, iv := range st.AnomalyIntervals {
		fmt.Printf("  anomaly %d: [%.1fs, %.1fs)\n", i+1, iv[0], iv[1])
	}

	// Extract features through the same pipeline the detector uses.
	segs, err := st.Segments()
	if err != nil {
		return err
	}
	pipe, err := feature.NewPipeline(classes, preset.DescriptorDim, feature.DefaultAudienceConfig(), seed)
	if err != nil {
		return err
	}
	actions, audience, err := pipe.Extract(segs, st.Comments, sec)
	if err != nil {
		return err
	}
	nAnom := 0
	for i := range segs {
		if segs[i].Label {
			nAnom++
		}
	}
	fmt.Printf("extracted %d segments: d1=%d, d2=%d, %d labelled anomalous\n",
		len(segs), len(actions[0]), len(audience[0]), nAnom)

	if outPath == "" {
		return nil
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var line []byte
	for i := range actions {
		line = wire.AppendObservation(line[:0], actions[i], audience[i])
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", outPath, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", outPath, err)
	}
	fmt.Printf("wrote %d observation lines to %s\n", len(actions), outPath)
	return nil
}
