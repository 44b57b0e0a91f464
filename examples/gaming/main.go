// Gaming-stream moderation (the paper's TWI dataset): a Twitch-style
// channel with heavy chat. This example exercises the true *live* code
// path: frames arrive one at a time through the LiveSegmenter, comments
// attach as segments complete, features are extracted per segment, and the
// detector decides online, segment by segment — printing a running log
// like a moderation dashboard would.
package main

import (
	"fmt"
	"log"

	"aovlis"
	"aovlis/internal/comments"
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

	// --- live session: frames arrive one by one ---
	live, err := synth.Generate(synth.Options{Preset: preset, DurationSec: liveSec, Seed: 32})
	if err != nil {
		log.Fatal(err)
	}
	segmenter, err := stream.NewLiveSegmenter(stream.NewSegmenter())
	if err != nil {
		log.Fatal(err)
	}

	// The batch extractor computed count aggregates over the whole stream;
	// live we recompute the windowed counts as seconds complete. For the
	// example we precompute the per-second counts once (they only depend on
	// already-arrived comments at segment-completion time).
	perSec := comments.CountPerSecond(live.Comments, liveSec)
	_ = perSec

	flagged := 0
	for _, f := range live.Frames {
		seg := segmenter.Push(f)
		if seg == nil {
			continue
		}
		// Attach the comments that arrived during the segment's time span.
		seg.Comments = comments.InWindow(live.Comments, seg.StartSec, seg.EndSec)

		// Featurise just this segment (I3D is per-segment; the audience
		// featurizer needs the segment plus the stream's comment history).
		actionFeat, err := pipe.I3D.Extract(seg)
		if err != nil {
			log.Fatal(err)
		}
		audienceFeats, err := pipe.Audience.ExtractSeries(
			[]stream.Segment{*seg}, live.Comments, liveSec)
		if err != nil {
			log.Fatal(err)
		}

		res, err := det.Observe(actionFeat, audienceFeats[0])
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

	fmt.Printf("\nsession done: %d segments observed, %d flagged\n", det.Observed(), flagged)
	fmt.Printf("injected anomaly intervals:\n")
	for _, iv := range live.AnomalyIntervals {
		fmt.Printf("  [%.0fs, %.0fs)\n", iv[0], iv[1])
	}
}
