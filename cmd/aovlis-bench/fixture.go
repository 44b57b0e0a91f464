package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"aovlis"
	"aovlis/internal/dataset"
	"aovlis/internal/feature"
	"aovlis/internal/stream/live"
	"aovlis/internal/synth"
)

// Fixture constants shared by every workload: the daemon's own defaults
// (-preset INF -train-sec 420 -classes 48 -epochs 10) and the paper's model
// shape (hidden 32/16, q = 9 come from aovlis.DefaultConfig).
const (
	trainSec  = 420
	classes   = 48
	epochs    = 10
	streamSec = 1800
)

// buildDataset is the first step of the fixture: the anomaly-free INF
// training stream and the one fitted feature pipeline every channel stream
// is pushed through (a second pipeline seed is a different feature space and
// scores everything anomalous).
func buildDataset(seed int64) (*dataset.Dataset, error) {
	dcfg := dataset.DefaultConfig(synth.INF())
	dcfg.TrainSec, dcfg.TestSec = trainSec, 64 // the test stream is unused
	dcfg.Classes = classes
	dcfg.SeqLen = seqLen
	dcfg.Seed = seed
	return dataset.Build(dcfg)
}

// trainModel fits the seed's detector and writes it to path; enableUpdate
// is saved with it and does not change the weights.
func trainModel(ds *dataset.Dataset, enableUpdate bool, seed int64, path string) error {
	cfg := aovlis.DefaultConfig(classes, ds.Config.Audience.Dim())
	cfg.Epochs = epochs
	cfg.Seed = seed
	cfg.EnableUpdate = enableUpdate // update.DefaultConfig, the paper's operating point
	det, err := aovlis.Train(ds.TrainActions, ds.TrainAudience, cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := det.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inputs are everything the servers receive, generated from the seed.
type inputs struct {
	w    workload
	plan plan
	// act, aud and lines hold each channel's distinct segments: features and
	// the encoded observation (no trailing newline).
	act, aud [][][]float64
	lines    [][][]byte
	// seq maps a channel's k-th streamed segment to its distinct segment.
	seq [][]int32
	// sha is the SHA-256 of the generated segment bytes and their order,
	// set by finishPlan.
	sha string
}

// finishPlan cuts every channel's stream to the length of its reference
// replay and seals the inputs with their hash.
func (in *inputs) finishPlan(want [][]aovlis.Result) {
	h := sha256.New()
	var idx [4]byte
	for c := range in.seq {
		in.seq[c] = in.seq[c][:len(want[c])]
		in.plan.saturate[c] = len(want[c]) - in.plan.setup[c] - in.plan.paced[c]
		for _, l := range in.lines[c] {
			h.Write(l)
			h.Write([]byte{'\n'})
		}
		for _, d := range in.seq[c] {
			binary.LittleEndian.PutUint32(idx[:], uint32(d))
			h.Write(idx[:])
		}
	}
	in.sha = hex.EncodeToString(h.Sum(nil))
}

// channelName is the id the servers know channel c by.
func channelName(c int) string { return fmt.Sprintf("ch-%d", c) }

// streamSeed is the synth seed of channel c's INF stream; its TED stream (the
// drift mix) takes the next one.
func streamSeed(seed int64, c int) int64 { return seed*1000 + int64(c)*2 + 100 }

// segments generates one synth stream and returns its segments featurised
// by a clone of the fitted pipeline, each with its encoded observation.
func segments(pipe *feature.Pipeline, p synth.Preset, sd int64) (act, aud [][]float64, lines [][]byte, err error) {
	st, err := synth.Generate(synth.Options{Preset: p, DurationSec: streamSec, Seed: sd})
	if err != nil {
		return nil, nil, nil, err
	}
	segs, err := st.Segments()
	if err != nil {
		return nil, nil, nil, err
	}
	if act, aud, err = pipe.Clone().Extract(segs, st.Comments, streamSec); err != nil {
		return nil, nil, nil, err
	}
	lines = make([][]byte, len(act))
	for i := range act {
		if lines[i], err = json.Marshal(live.Observation{Action: act[i], Audience: aud[i]}); err != nil {
			return nil, nil, nil, err
		}
	}
	return act, aud, lines, nil
}

// generate builds every channel's stream: the channel's own INF segments
// (then, on the drift mix, its TED ones), cycled to the planned length.
func generate(w workload, seconds int, seed int64, pipe *feature.Pipeline) (*inputs, error) {
	in := &inputs{w: w, plan: w.schedule(seconds)}
	n := w.channels
	in.act, in.aud = make([][][]float64, n), make([][][]float64, n)
	in.lines, in.seq = make([][][]byte, n), make([][]int32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a, b, l, err := segments(pipe, synth.INF(), streamSeed(seed, c))
			inf := len(a)
			if err == nil && w.mix == drift {
				var ta, tb [][]float64
				var tl [][]byte
				ta, tb, tl, err = segments(pipe, synth.TED(), streamSeed(seed, c)+1)
				a, b, l = append(a, ta...), append(b, tb...), append(l, tl...)
			}
			if err != nil {
				errs[c] = err
				return
			}
			in.act[c], in.aud[c], in.lines[c] = a, b, l
			in.seq[c] = make([]int32, in.plan.total(c))
			for k := range in.seq[c] {
				if w.mix == drift && k >= regimeSwitch {
					in.seq[c][k] = int32(inf + (k-regimeSwitch)%(len(a)-inf))
				} else {
					in.seq[c][k] = int32(k % inf)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("generating streams: %w", err)
		}
	}
	return in, nil
}

// oracle replays every channel's identical segment sequence through an
// in-process aovlis.Load of the servers' model file — same scoring mode,
// same updater configuration (it is part of the saved model) — and returns
// the reference verdict for every segment (up to a channel's stopAfter-th
// retrain of the saturate phase, if stopAfter is not 0), with the median over channels of
// each channel's single-thread scoring rate in segments per second: the
// arithmetic ceiling of the workload's own segments. At most GOMAXPROCS
// channels replay at once, so each has a core while the servers idle.
func oracle(modelPath string, in *inputs, stopAfter int) ([][]aovlis.Result, float64, error) {
	model, err := os.ReadFile(modelPath)
	if err != nil {
		return nil, 0, err
	}
	n := in.w.channels
	out := make([][]aovlis.Result, n)
	rates := make([]float64, n)
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			det, err := loadDetector(model, in.w.fastTiered())
			if err != nil {
				errs[c] = err
				return
			}
			res := make([]aovlis.Result, len(in.seq[c]))
			satFrom, retrains := in.plan.setup[c]+in.plan.paced[c], 0
			start := time.Now()
			for k, d := range in.seq[c] {
				if res[k], err = det.Observe(in.act[c][d], in.aud[c][d]); err != nil {
					errs[c] = fmt.Errorf("channel %d segment %d: %w", c, k, err)
					return
				}
				// An update workload's channel ends with its last wanted
				// retrain (see driftRetrains).
				if res[k].Updated && k >= satFrom {
					if retrains++; retrains == stopAfter {
						res = res[:k+1]
						break
					}
				}
			}
			rates[c] = float64(len(res)) / time.Since(start).Seconds()
			out[c] = res
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("oracle: %w", err)
		}
	}
	return out, median(rates), nil
}

// loadDetector is what a daemon does with -load (and -fastmath -tiered).
func loadDetector(model []byte, fastTiered bool) (*aovlis.Detector, error) {
	det, err := aovlis.Load(bytes.NewReader(model))
	if err != nil {
		return nil, err
	}
	if fastTiered {
		if err := det.SetScoringMode(true, true); err != nil {
			return nil, err
		}
	}
	return det, nil
}

// verdictMatches reports whether one decision line is the reference
// verdict: seq, warmup, anomaly, exact, path and the score's float64 bits
// after the JSON round trip. Error, dropped and rejected lines never match.
func verdictMatches(d *live.Decision, wantSeq uint64, want aovlis.Result) bool {
	return d.Error == "" && !d.Dropped && !d.Rejected &&
		d.Seq == wantSeq &&
		d.Warmup == want.Warmup &&
		d.Anomaly == want.Anomaly &&
		d.Exact == want.Exact &&
		d.Path == want.Path &&
		math.Float64bits(d.Score) == math.Float64bits(want.Score)
}
