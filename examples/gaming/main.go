// Gaming-stream moderation (the paper's TWI dataset): a Twitch-style
// channel with heavy chat. This example exercises the true *live* code
// path: frames and chat messages arrive one at a time through feature.Ingest,
// which segments the frames, attaches each segment's comments and
// featurises it online — the features the batch pipeline would produce,
// including the neighbouring segments' comment counts — and the detector
// decides segment by segment, printing a running log like a moderation
// dashboard would. A segment is decided once the next segment's comment
// counts are complete, a few seconds behind the live edge.
package main

import (
	"fmt"
	"log"

	"aovlis"
	"aovlis/internal/feature"
	"aovlis/internal/stream"
	"aovlis/internal/synth"
)

func main() {
	const trainSec, liveSec = 360, 300
	preset := synth.TWI()

	// --- offline training on a recorded normal session ---
	normal, err := synth.Generate(synth.Options{Preset: preset, DurationSec: trainSec, AnomalyFree: true, Seed: 31})
	if err != nil {
		log.Fatal(err)
	}
	normalSegs, err := normal.Segments()
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := feature.NewPipeline(48, preset.DescriptorDim, feature.DefaultAudienceConfig(), 31)
	if err != nil {
		log.Fatal(err)
	}
	trainActions, trainAudience, err := pipe.Extract(normalSegs, normal.Comments, trainSec)
	if err != nil {
		log.Fatal(err)
	}
	cfg := aovlis.DefaultConfig(48, feature.DefaultAudienceConfig().Dim())
	cfg.Epochs = 8
	cfg.Omega = 0.9 // the paper's tuned ω for TWI
	det, err := aovlis.Train(trainActions, trainAudience, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("moderation model ready (τ=%.4f)\n", det.Tau())

	// --- live session: frames and chat arrive one by one ---
	live, err := synth.Generate(synth.Options{Preset: preset, DurationSec: liveSec, Seed: 32})
	if err != nil {
		log.Fatal(err)
	}
	in, err := feature.NewIngest(pipe, stream.Segmenter{})
	if err != nil {
		log.Fatal(err)
	}

	flagged := 0
	decide := func(obs []feature.Observation) {
		for i := range obs {
			seg := &obs[i].Segment
			res, err := det.Observe(obs[i].Action, obs[i].Audience)
			if err != nil {
				log.Fatal(err)
			}
			if res.Warmup || !res.Anomaly {
				continue
			}
			flagged++
			truth := ""
			if seg.Label {
				truth = " [ground-truth anomaly]"
			}
			fmt.Printf("t=%5.1fs  segment %3d  score %.4f  decided-by=%s  chat=%d msgs%s\n",
				seg.StartSec, seg.Index, res.Score, res.Path, len(seg.Comments), truth)
		}
	}
	ci := 0
	for _, f := range live.Frames {
		// Chat sent before this frame ends reaches the ingest first.
		frameEnd := float64(f.Index+1) / float64(live.FPS)
		for ci < len(live.Comments) && live.Comments[ci].AtSec < frameEnd {
			in.PushComment(live.Comments[ci])
			ci++
		}
		obs, err := in.PushFrame(f)
		if err != nil {
			log.Fatal(err)
		}
		decide(obs)
	}
	for ; ci < len(live.Comments); ci++ {
		in.PushComment(live.Comments[ci])
	}
	obs, err := in.Flush()
	if err != nil {
		log.Fatal(err)
	}
	decide(obs)

	fmt.Printf("\nsession done: %d segments observed, %d flagged\n", det.Observed(), flagged)
	fmt.Printf("injected anomaly intervals:\n")
	for _, iv := range live.AnomalyIntervals {
		fmt.Printf("  [%.0fs, %.0fs)\n", iv[0], iv[1])
	}
}
