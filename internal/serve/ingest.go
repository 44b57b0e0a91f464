// Online feature ingest: the frame-and-comment front-end of a served
// channel. An Ingest owns a stream.LiveSegmenter and a per-channel clone of
// the fitted feature pipeline, consumes raw frames and comments in stream
// order, and emits aligned (action, audience) feature pairs ready for
// DetectorPool.Observe — the same features the batch pipeline would have
// produced, computed incrementally in O(1) amortised work per second of
// stream (the windowed count series D_t is maintained incrementally rather
// than recomputed).
//
// Emission lags the live edge by a short horizon because the audience
// featurizer conjoins the *next* segment's count tuple (§IV-A2) and counts
// a window of seconds around each moment: segment i is emitted once the
// frame clock guarantees every second its feature reads is complete — with
// the paper's defaults, about K + WindowS + 1 seconds after the segment
// window closes. Comments must be pushed no later than the frame that
// closes their second; later arrivals are ignored for already-emitted
// segments (the online lateness policy).
package serve

import (
	"fmt"
	"math"
	"sort"

	"aovlis/internal/comments"
	"aovlis/internal/feature"
	"aovlis/internal/stream"
)

// Observation is one emitted segment with its extracted features.
type Observation struct {
	// Segment is the completed segment (comments attached).
	Segment stream.Segment
	// Action is f_i = Φ_F(v_i); Audience is a_i = Φ_D(c_i).
	Action   []float64
	Audience []float64
}

// Ingest converts one channel's raw frame/comment stream into feature
// pairs. It is a single-writer object like the Detector: confine each
// Ingest to one goroutine (typically the connection or channel goroutine
// that also calls DetectorPool.Observe).
type Ingest struct {
	pipe *feature.Pipeline
	live *stream.LiveSegmenter
	seg  stream.Segmenter

	// pending buffers completed segments until their feature horizon is
	// reached; prev is the last emitted segment (for the conjoin step).
	pending []stream.Segment
	prev    *stream.Segment

	// cs is the time-ordered comment backlog still overlapping unemitted
	// windows; counts and windowed are the per-second comment counts d̂_t
	// and their aggregation D_t, grown by both the comment stream and the
	// frame clock (a second with no comments still enters the series).
	// Index 0 of both corresponds to stream second secBase: like the
	// comment backlog, the count series is trimmed as segments emit, so a
	// channel's memory stays bounded regardless of stream length.
	cs       []comments.Comment
	unsorted bool
	counts   []float64
	windowed []float64
	secBase  int
}

// NewIngest builds the ingest front-end of one channel. The pipeline must
// already be fitted on a normal training stream (its count-normalisation
// reference is frozen); the Ingest clones the audience featurizer so any
// number of channels may share one fitted pipeline. A zero Segmenter
// selects the paper's defaults.
func NewIngest(pipe *feature.Pipeline, seg stream.Segmenter) (*Ingest, error) {
	if pipe == nil || pipe.I3D == nil || pipe.Audience == nil {
		return nil, fmt.Errorf("serve: ingest needs a complete feature pipeline")
	}
	if seg == (stream.Segmenter{}) {
		seg = stream.NewSegmenter()
	}
	live, err := stream.NewLiveSegmenter(seg)
	if err != nil {
		return nil, err
	}
	return &Ingest{pipe: pipe.Clone(), live: live, seg: seg}, nil
}

// growTo extends the count series through stream second sec-1. New seconds
// start with zero comments; their windowed sum picks up the trailing
// half-window of existing counts, matching comments.WindowedCounts over the
// grown series. (The emission horizon keeps the retained series longer than
// the half-window, so the trimmed prefix can never be inside a new
// second's window.)
func (in *Ingest) growTo(sec int) {
	s := in.pipe.Audience.Config().WindowS
	for len(in.counts) < sec-in.secBase {
		t := len(in.counts)
		in.counts = append(in.counts, 0)
		lo := t - s
		if lo < 0 {
			lo = 0
		}
		var sum float64
		for i := lo; i < t; i++ {
			sum += in.counts[i]
		}
		in.windowed = append(in.windowed, sum)
	}
}

// PushComment adds one audience comment. Comments should arrive in
// non-decreasing time order (live chat does); occasional disorder is
// tolerated and repaired before the next emission, but comments older than
// the already-emitted region are dropped (the online lateness policy).
func (in *Ingest) PushComment(c comments.Comment) {
	if c.AtSec < 0 || int(c.AtSec) < in.secBase {
		return
	}
	if n := len(in.cs); n > 0 && c.AtSec < in.cs[n-1].AtSec {
		in.unsorted = true
	}
	in.cs = append(in.cs, c)
	rel := int(c.AtSec) - in.secBase
	in.growTo(int(c.AtSec) + 1)
	in.counts[rel]++
	// Fold the new comment into every windowed sum its second contributes
	// to. Seconds beyond the current series pick it up when growTo creates
	// them.
	s := in.pipe.Audience.Config().WindowS
	lo, hi := rel-s, rel+s
	if lo < 0 {
		lo = 0
	}
	if hi >= len(in.windowed) {
		hi = len(in.windowed) - 1
	}
	for t := lo; t <= hi; t++ {
		in.windowed[t]++
	}
}

// PushFrame adds one video frame and returns the observations whose
// feature horizon it closed (usually none or one). Frames must arrive in
// stream order.
func (in *Ingest) PushFrame(f stream.Frame) ([]Observation, error) {
	if seg := in.live.Push(f); seg != nil {
		in.pending = append(in.pending, *seg)
	}
	// Seconds [0, completeSec) are fully covered by pushed frames; the
	// frame clock is the emission watermark.
	completeSec := (f.Index + 1) / in.seg.FPS
	in.growTo(completeSec)
	var out []Observation
	for len(in.pending) >= 2 && in.horizonSec(&in.pending[0], &in.pending[1]) <= completeSec {
		obs, err := in.emit(&in.pending[1])
		if err != nil {
			return nil, err
		}
		out = append(out, obs)
	}
	return out, nil
}

// horizonSec returns the second through which the frame clock must have
// advanced before seg can be emitted: the last moment of the next segment's
// count tuple plus the aggregation half-window (exclusive), and no earlier
// than the end of seg's own comment window — with a small count tuple the
// latter can be the binding constraint.
func (in *Ingest) horizonSec(seg, next *stream.Segment) int {
	cfg := in.pipe.Audience.Config()
	h := int(next.StartSec) + cfg.K - 1 + cfg.WindowS + 1
	if end := int(math.Ceil(seg.EndSec)); end > h {
		h = end
	}
	return h
}

// Flush emits every pending segment using the comments received so far;
// the final segment conjoins a zero next-tuple, exactly the boundary
// convention of the batch extractor. Call it when the stream ends.
func (in *Ingest) Flush() ([]Observation, error) {
	var out []Observation
	for len(in.pending) > 0 {
		var next *stream.Segment
		if len(in.pending) >= 2 {
			next = &in.pending[1]
		}
		obs, err := in.emit(next)
		if err != nil {
			return nil, err
		}
		out = append(out, obs)
	}
	return out, nil
}

// emit extracts and pops the head pending segment. next is its successor
// (nil only at end of stream).
func (in *Ingest) emit(next *stream.Segment) (Observation, error) {
	if in.unsorted {
		sort.SliceStable(in.cs, func(i, j int) bool { return in.cs[i].AtSec < in.cs[j].AtSec })
		in.unsorted = false
	}
	seg := in.pending[0]
	// The attached window is copied: the backlog below is compacted in
	// place as the stream advances.
	seg.Comments = append([]comments.Comment(nil), comments.InWindow(in.cs, seg.StartSec, seg.EndSec)...)

	action, err := in.pipe.I3D.Extract(&seg)
	if err != nil {
		return Observation{}, fmt.Errorf("serve: ingest segment %d: %w", seg.Index, err)
	}
	audience := in.pipe.Audience.ExtractOne(&seg, in.prev, next, in.windowed, in.secBase)

	in.prev = &seg
	in.pending = in.pending[1:]

	// Drop backlog comments no future window can overlap (windows slide by
	// one stride per segment), and count seconds below what the next
	// emission's conjoin step can read (its prev tuple starts at this
	// segment's second). Both series stay a few seconds long regardless of
	// stream length.
	cutoff := seg.StartSec + float64(in.seg.Stride)/float64(in.seg.FPS)
	drop := sort.Search(len(in.cs), func(i int) bool { return in.cs[i].AtSec >= cutoff })
	if drop > 0 {
		in.cs = append(in.cs[:0], in.cs[drop:]...)
	}
	if newBase := int(seg.StartSec); newBase > in.secBase {
		shift := newBase - in.secBase
		if shift > len(in.counts) {
			shift = len(in.counts)
		}
		in.counts = append(in.counts[:0], in.counts[shift:]...)
		in.windowed = append(in.windowed[:0], in.windowed[shift:]...)
		in.secBase += shift
	}
	return Observation{Segment: seg, Action: action, Audience: audience}, nil
}
