// Package stream provides the video-stream substrate: frames, the 64-frame
// sliding-window segmentation with 25-frame stride that the paper adopts
// from Carreira & Zisserman (64 frames ≈ one action; stride 25 = 1 s at
// 25 fps), and a live segmenter that emits segments incrementally as frames
// arrive — the code path a real ingestion pipeline would use.
package stream

import (
	"fmt"

	"aovlis/internal/comments"
)

// Default segmentation constants from the paper (§IV-A).
const (
	// DefaultFPS is the frame rate the paper resizes all videos to.
	DefaultFPS = 25
	// DefaultSegmentFrames is the segment length in frames.
	DefaultSegmentFrames = 64
	// DefaultStride is the sliding-window interval in frames (1 s of video).
	DefaultStride = 25
)

// Frame is one video frame. Pixel data is replaced by a compact Descriptor
// (the simulation substitute documented in DESIGN.md): downstream feature
// extraction reads only the descriptor, exactly as I3D would read pixels.
type Frame struct {
	// Index is the frame number in the stream.
	Index int
	// Descriptor is the compact visual content vector.
	Descriptor []float64
	// State is the generator's latent presenter state (metadata for tests
	// and labelling; the feature extractor never reads it).
	State int
	// Anomalous marks frames inside an injected anomaly interval.
	Anomalous bool
}

// Segment is one 64-frame sliding-window unit: the paper's basic processing
// unit v_i, together with its time span, attached audience comments and
// ground-truth label.
type Segment struct {
	// Index is the segment's position in the segment series.
	Index int
	// StartFrame / EndFrame delimit the window [StartFrame, EndFrame).
	StartFrame, EndFrame int
	// Frames holds the frames of the window.
	Frames []Frame
	// StartSec / EndSec are the time span in seconds.
	StartSec, EndSec float64
	// Comments are the audience comments that fall inside the time span.
	Comments []comments.Comment
	// Label is the ground-truth anomaly label (true = anomaly), derived
	// from frame annotations.
	Label bool
	// MajorityState is the latent state most frames carry (test metadata).
	MajorityState int
}

// Segmenter slices a frame series into overlapping segments.
type Segmenter struct {
	// Size is the window length in frames.
	Size int
	// Stride is the window step in frames.
	Stride int
	// FPS converts frame indices to seconds.
	FPS int
}

// NewSegmenter returns a Segmenter with the paper's defaults.
func NewSegmenter() Segmenter {
	return Segmenter{Size: DefaultSegmentFrames, Stride: DefaultStride, FPS: DefaultFPS}
}

// Validate reports the first invalid parameter.
func (s Segmenter) Validate() error {
	if s.Size <= 0 || s.Stride <= 0 || s.FPS <= 0 {
		return fmt.Errorf("stream: segmenter requires positive size/stride/fps, got %d/%d/%d", s.Size, s.Stride, s.FPS)
	}
	return nil
}

// Segment slices frames into sliding windows. The final partial window is
// dropped (the paper processes complete 64-frame units only).
func (s Segmenter) Segment(frames []Frame) ([]Segment, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var segs []Segment
	for start := 0; start+s.Size <= len(frames); start += s.Stride {
		segs = append(segs, s.makeSegment(len(segs), frames[start:start+s.Size], start))
	}
	return segs, nil
}

func (s Segmenter) makeSegment(index int, window []Frame, start int) Segment {
	seg := Segment{
		Index:      index,
		StartFrame: start,
		EndFrame:   start + s.Size,
		Frames:     window,
		StartSec:   float64(start) / float64(s.FPS),
		EndSec:     float64(start+s.Size) / float64(s.FPS),
	}
	// Label: a segment is an anomaly when most of its frames are inside an
	// injected anomaly interval. Majority state likewise.
	anomalous := 0
	stateCount := map[int]int{}
	for _, f := range window {
		if f.Anomalous {
			anomalous++
		}
		stateCount[f.State]++
	}
	seg.Label = anomalous*2 > len(window)
	best, bestN := 0, -1
	for st, n := range stateCount {
		if n > bestN || (n == bestN && st < best) {
			best, bestN = st, n
		}
	}
	seg.MajorityState = best
	return seg
}

// AttachComments assigns each segment the comments falling inside its time
// span. The comment slice must be sorted by time (comments.Generator
// guarantees this).
func AttachComments(segs []Segment, cs []comments.Comment) {
	for i := range segs {
		segs[i].Comments = comments.InWindow(cs, segs[i].StartSec, segs[i].EndSec)
	}
}

// LiveSegmenter incrementally consumes frames and emits a segment whenever
// a full window completes — the online counterpart of Segment used by the
// streaming detector.
type LiveSegmenter struct {
	seg       Segmenter
	buf       []Frame
	nextStart int // absolute index of the next window start
	absBase   int // absolute index of buf[0]
	emitted   int
}

// NewLiveSegmenter returns a live segmenter with the given parameters.
func NewLiveSegmenter(seg Segmenter) (*LiveSegmenter, error) {
	if err := seg.Validate(); err != nil {
		return nil, err
	}
	return &LiveSegmenter{seg: seg}, nil
}

// Push appends one frame; when a window completes it returns the finished
// segment, otherwise nil.
func (l *LiveSegmenter) Push(f Frame) *Segment {
	l.buf = append(l.buf, f)
	absEnd := l.absBase + len(l.buf)
	if absEnd < l.nextStart+l.seg.Size {
		return nil
	}
	relStart := l.nextStart - l.absBase
	window := make([]Frame, l.seg.Size)
	copy(window, l.buf[relStart:relStart+l.seg.Size])
	seg := l.seg.makeSegment(l.emitted, window, l.nextStart)
	l.emitted++
	l.nextStart += l.seg.Stride
	// Drop frames no longer needed by any future window.
	if drop := l.nextStart - l.absBase; drop > 0 {
		if drop > len(l.buf) {
			drop = len(l.buf)
		}
		l.buf = append(l.buf[:0], l.buf[drop:]...)
		l.absBase += drop
	}
	return &seg
}
