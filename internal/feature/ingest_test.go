package feature_test

import (
	"math"
	"testing"

	"aovlis/internal/comments"
	"aovlis/internal/dataset"
	"aovlis/internal/feature"
	"aovlis/internal/stream"
	"aovlis/internal/synth"
)

func TestNewIngestValidation(t *testing.T) {
	if _, err := feature.NewIngest(nil, stream.Segmenter{}); err == nil {
		t.Fatal("nil pipeline accepted")
	}
	if _, err := feature.NewIngest(&feature.Pipeline{}, stream.Segmenter{}); err == nil {
		t.Fatal("incomplete pipeline accepted")
	}
	pipe, err := feature.NewPipeline(8, 4, feature.DefaultAudienceConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := feature.NewIngest(pipe, stream.Segmenter{})
	if err != nil {
		t.Fatal(err)
	}
	if seg := feature.IngestSegmenter(in); seg.Size != stream.DefaultSegmentFrames || seg.FPS != stream.DefaultFPS {
		t.Fatalf("zero segmenter did not default: %+v", seg)
	}
	if _, err := feature.NewIngest(pipe, stream.Segmenter{Size: -1, Stride: 1, FPS: 1}); err == nil {
		t.Fatal("invalid segmenter accepted")
	}
}

// replay pushes a generated stream through an Ingest in live order:
// comments are delivered just before the frame that closes their second,
// the way a chat feed interleaves with video in a real ingest loop.
func replay(t *testing.T, in *feature.Ingest, st *synth.Stream) []feature.Observation {
	t.Helper()
	var out []feature.Observation
	ci := 0
	for _, f := range st.Frames {
		frameEnd := float64(f.Index+1) / float64(st.FPS)
		for ci < len(st.Comments) && st.Comments[ci].AtSec < frameEnd {
			in.PushComment(st.Comments[ci])
			ci++
		}
		obs, err := in.PushFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, obs...)
	}
	for ; ci < len(st.Comments); ci++ {
		in.PushComment(st.Comments[ci])
	}
	tail, err := in.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, tail...)
}

// TestIngestMatchesBatchPipeline is the load-bearing correctness test of
// the online path: frame-by-frame ingest through LiveSegmenter plus
// incremental count maintenance must reproduce the batch feature pipeline
// (dataset.Build's extraction) on the identical stream. The minimal
// audience config exercises the case where the segment's own comment
// window, not the next tuple, binds the emission horizon.
func TestIngestMatchesBatchPipeline(t *testing.T) {
	minimal := feature.AudienceConfig{K: 1, WindowS: 0, EmbedDim: 4, ConjoinNeighbors: false, CountScale: 0.35}
	for name, acfg := range map[string]feature.AudienceConfig{
		"default": feature.DefaultAudienceConfig(),
		"minimal": minimal,
	} {
		t.Run(name, func(t *testing.T) { testIngestParity(t, acfg) })
	}
}

func testIngestParity(t *testing.T, acfg feature.AudienceConfig) {
	cfg := dataset.DefaultConfig(synth.INF())
	cfg.TrainSec, cfg.TestSec = 200, 160
	cfg.Classes = 24
	cfg.Audience = acfg
	ds, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Regenerate the exact test stream dataset.Build featurised.
	st, err := synth.Generate(synth.Options{Preset: cfg.Preset, DurationSec: cfg.TestSec, Seed: cfg.Seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	in, err := feature.NewIngest(ds.Pipeline, stream.Segmenter{})
	if err != nil {
		t.Fatal(err)
	}
	obs := replay(t, in, st)

	if len(obs) != len(ds.TestActions) {
		t.Fatalf("online path emitted %d segments, batch extracted %d", len(obs), len(ds.TestActions))
	}
	for i, o := range obs {
		if o.Segment.Index != i {
			t.Fatalf("segment %d emitted out of order (index %d)", i, o.Segment.Index)
		}
		if o.Segment.Label != ds.TestLabels[i] {
			t.Fatalf("segment %d label %v, batch %v", i, o.Segment.Label, ds.TestLabels[i])
		}
		assertClose(t, "action", i, o.Action, ds.TestActions[i])
		assertClose(t, "audience", i, o.Audience, ds.TestAudience[i])
	}
	// Long-stream memory bound: the count series and comment backlog are
	// trimmed as segments emit, staying a few seconds long rather than
	// growing with stream duration.
	if counts, windowed := feature.IngestRetained(in); counts > 30 || windowed > 30 {
		t.Fatalf("count series not trimmed: %d seconds retained of a %ds stream", counts, cfg.TestSec)
	}
}

func assertClose(t *testing.T, kind string, seg int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("segment %d %s feature dim %d, want %d", seg, kind, len(got), len(want))
	}
	for j := range got {
		if math.Abs(got[j]-want[j]) > 1e-12 {
			t.Fatalf("segment %d %s feature[%d] = %v, batch %v", seg, kind, j, got[j], want[j])
		}
	}
}

// TestIngestEmissionLag checks the watermark: a segment is only emitted
// once the frame clock passes the last second its audience feature reads,
// and emission proceeds strictly in order at one segment per stride.
func TestIngestEmissionLag(t *testing.T) {
	pipe, err := feature.NewPipeline(8, 4, feature.DefaultAudienceConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := feature.NewIngest(pipe, stream.Segmenter{})
	if err != nil {
		t.Fatal(err)
	}
	acfg := feature.DefaultAudienceConfig()
	// Segment 0 starts at second 0; its horizon is the stride (1 s) plus
	// the tuple span and half-window of the *next* segment's counts.
	wantHorizon := 1 + acfg.K - 1 + acfg.WindowS + 1
	desc := []float64{0.1, 0.2, 0.3, 0.4}
	lastIndex := -1
	for i := 0; i < stream.DefaultFPS*12; i++ {
		obs, err := in.PushFrame(stream.Frame{Index: i, Descriptor: desc})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range obs {
			completeSec := (i + 1) / stream.DefaultFPS
			if completeSec < wantHorizon+o.Segment.Index {
				t.Fatalf("segment %d emitted at frame %d (second %d), before horizon %d",
					o.Segment.Index, i, completeSec, wantHorizon+o.Segment.Index)
			}
			if o.Segment.Index != lastIndex+1 {
				t.Fatalf("emission out of order: %d after %d", o.Segment.Index, lastIndex)
			}
			lastIndex = o.Segment.Index
		}
	}
	if lastIndex < 4 {
		t.Fatalf("only %d segments emitted from 12s of frames", lastIndex+1)
	}
}

// TestIngestOutOfOrderComments: modest comment disorder is repaired before
// the next emission instead of corrupting the attached windows.
func TestIngestOutOfOrderComments(t *testing.T) {
	pipe, err := feature.NewPipeline(8, 4, feature.DefaultAudienceConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := feature.NewIngest(pipe, stream.Segmenter{})
	if err != nil {
		t.Fatal(err)
	}
	in.PushComment(comments.Comment{AtSec: 1.5, Text: "wow"})
	in.PushComment(comments.Comment{AtSec: 0.5, Text: "hello"}) // late
	in.PushComment(comments.Comment{AtSec: -3, Text: "dropped"})
	desc := []float64{0.1, 0.2, 0.3, 0.4}
	var all []feature.Observation
	for i := 0; i < stream.DefaultFPS*10; i++ {
		obs, err := in.PushFrame(stream.Frame{Index: i, Descriptor: desc})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, obs...)
	}
	if len(all) == 0 {
		t.Fatal("no segments emitted")
	}
	first := all[0].Segment
	if len(first.Comments) != 2 {
		t.Fatalf("segment 0 got %d comments, want 2 (negative-time comment dropped)", len(first.Comments))
	}
	if first.Comments[0].AtSec != 0.5 || first.Comments[1].AtSec != 1.5 {
		t.Fatalf("comments not re-sorted: %+v", first.Comments)
	}
}
