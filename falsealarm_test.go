package aovlis

import (
	"fmt"
	"testing"
	"time"

	"aovlis/internal/dataset"
	"aovlis/internal/synth"
)

// TestFalseAlarmRateAcrossMerges is the false-alarm harness: an
// EnableUpdate template trained on the first part of an anomaly-free
// stream (a dataset's training stream) scores the rest with a drift
// threshold that merges at every drift check, and the test logs the alarm
// rate before the first merge and after each one, in windows of ls scored
// segments, against the 1 − TauQuantile that τ's calibration aims at. Every
// alarm on this stream is false. It gates only that the stream merged at
// least twice: where the rate must stay is for the recalibration that reads
// it to pin.
func TestFalseAlarmRateAcrossMerges(t *testing.T) {
	start := time.Now()
	dcfg := dataset.DefaultConfig(synth.INF())
	dcfg.TrainSec, dcfg.TestSec, dcfg.Classes = 3000, 30, 48
	ds, err := dataset.Build(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	const trainLen = 400
	cfg := DefaultConfig(dcfg.Classes, dcfg.Audience.Dim())
	cfg.Epochs = 8
	cfg.EnableUpdate = true
	cfg.Update.DriftThreshold = 1 // every drift check merges
	cfg.Update.TrainEpochs = 2
	det, err := Train(ds.TrainActions[:trainLen], ds.TrainAudience[:trainLen], cfg)
	if err != nil {
		t.Fatal(err)
	}
	ls, want := cfg.Update.MaxBuffer, 1-cfg.TauQuantile
	merges, scored, alarms := 0, 0, 0
	var phaseScored, phaseAlarms int
	label := func() string {
		if merges == 0 {
			return "before the first merge"
		}
		return fmt.Sprintf("after merge %d", merges)
	}
	report := func() {
		if scored > 0 {
			t.Logf("%s, a window of %d scored segments: alarm rate %.4f (1 − TauQuantile = %.2f)", label(), scored, float64(alarms)/float64(scored), want)
		}
		scored, alarms = 0, 0
	}
	phase := func() {
		report()
		if phaseScored > 0 {
			t.Logf("%s, all %d scored segments: alarm rate %.4f", label(), phaseScored, float64(phaseAlarms)/float64(phaseScored))
		}
		phaseScored, phaseAlarms = 0, 0
	}
	for i := trainLen; i < len(ds.TrainActions); i++ {
		r, err := det.Observe(ds.TrainActions[i], ds.TrainAudience[i])
		if err != nil {
			t.Fatal(err)
		}
		if !r.Warmup {
			scored++
			phaseScored++
			if r.Anomaly {
				alarms++
				phaseAlarms++
			}
		}
		switch {
		case r.Updated:
			phase()
			merges++
		case scored == ls:
			report()
		}
	}
	phase()
	t.Logf("%d segments streamed in %v", len(ds.TrainActions)-trainLen, time.Since(start).Round(time.Millisecond))
	if merges < 2 {
		t.Fatalf("the anomaly-free stream merged %d times, want at least 2", merges)
	}
}
