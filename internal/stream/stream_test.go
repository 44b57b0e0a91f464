package stream

import (
	"math/rand"
	"testing"

	"aovlis/internal/comments"
)

func makeFrames(n int) []Frame {
	frames := make([]Frame, n)
	for i := range frames {
		frames[i] = Frame{Index: i, Descriptor: []float64{float64(i)}, State: i / 100}
	}
	return frames
}

func TestSegmenterCounts(t *testing.T) {
	seg := NewSegmenter()
	frames := makeFrames(64 + 25*9) // exactly 10 windows
	segs, err := seg.Segment(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 10 {
		t.Fatalf("got %d segments, want 10", len(segs))
	}
	if segs[0].StartFrame != 0 || segs[0].EndFrame != 64 {
		t.Fatalf("segment 0 span [%d,%d)", segs[0].StartFrame, segs[0].EndFrame)
	}
	if segs[1].StartFrame != 25 {
		t.Fatalf("segment 1 start %d, want 25", segs[1].StartFrame)
	}
	if segs[9].EndFrame != 64+25*9 {
		t.Fatalf("last segment end %d", segs[9].EndFrame)
	}
}

func TestSegmenterTimeSpans(t *testing.T) {
	seg := NewSegmenter()
	segs, err := seg.Segment(makeFrames(200))
	if err != nil {
		t.Fatal(err)
	}
	if segs[0].StartSec != 0 || segs[0].EndSec != 64.0/25 {
		t.Fatalf("segment 0 time [%v,%v)", segs[0].StartSec, segs[0].EndSec)
	}
	if segs[1].StartSec != 1 {
		t.Fatalf("segment 1 starts at %v s, want 1 s (stride = 1 s)", segs[1].StartSec)
	}
}

func TestSegmenterDropsPartial(t *testing.T) {
	seg := NewSegmenter()
	segs, err := seg.Segment(makeFrames(63))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("63 frames should yield no segment, got %d", len(segs))
	}
}

func TestSegmenterValidate(t *testing.T) {
	bad := Segmenter{Size: 0, Stride: 25, FPS: 25}
	if _, err := bad.Segment(makeFrames(100)); err == nil {
		t.Fatal("invalid segmenter accepted")
	}
}

func TestSegmentLabelMajority(t *testing.T) {
	seg := Segmenter{Size: 4, Stride: 4, FPS: 1}
	frames := makeFrames(8)
	// First window: 3/4 anomalous → label true. Second: 1/4 → false.
	frames[0].Anomalous = true
	frames[1].Anomalous = true
	frames[2].Anomalous = true
	frames[4].Anomalous = true
	segs, err := seg.Segment(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !segs[0].Label || segs[1].Label {
		t.Fatalf("labels = %v/%v, want true/false", segs[0].Label, segs[1].Label)
	}
}

func TestSegmentMajorityState(t *testing.T) {
	seg := Segmenter{Size: 4, Stride: 4, FPS: 1}
	frames := makeFrames(4)
	frames[0].State = 7
	frames[1].State = 7
	frames[2].State = 7
	frames[3].State = 3
	segs, _ := seg.Segment(frames)
	if segs[0].MajorityState != 7 {
		t.Fatalf("majority state = %d, want 7", segs[0].MajorityState)
	}
}

func TestAttachComments(t *testing.T) {
	seg := NewSegmenter()
	segs, _ := seg.Segment(makeFrames(200))
	cs := []comments.Comment{
		{AtSec: 0.1, Text: "a"},
		{AtSec: 1.5, Text: "b"},
		{AtSec: 100, Text: "out of range"},
	}
	AttachComments(segs, cs)
	if len(segs[0].Comments) != 2 {
		t.Fatalf("segment 0 comments = %d, want 2 (span [0,2.56))", len(segs[0].Comments))
	}
	// Segment 1 spans [1, 3.56): contains comment b only.
	if len(segs[1].Comments) != 1 || segs[1].Comments[0].Text != "b" {
		t.Fatalf("segment 1 comments = %v", segs[1].Comments)
	}
}

func TestLiveSegmenterMatchesBatch(t *testing.T) {
	seg := NewSegmenter()
	frames := makeFrames(64 + 25*7 + 13)
	batch, err := seg.Segment(frames)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewLiveSegmenter(seg)
	if err != nil {
		t.Fatal(err)
	}
	var got []Segment
	for _, f := range frames {
		if s := live.Push(f); s != nil {
			got = append(got, *s)
		}
	}
	if len(got) != len(batch) {
		t.Fatalf("live emitted %d segments, batch %d", len(got), len(batch))
	}
	for i := range got {
		if got[i].StartFrame != batch[i].StartFrame || got[i].EndFrame != batch[i].EndFrame {
			t.Fatalf("segment %d span mismatch: live [%d,%d) batch [%d,%d)",
				i, got[i].StartFrame, got[i].EndFrame, batch[i].StartFrame, batch[i].EndFrame)
		}
		if got[i].Frames[0].Index != batch[i].Frames[0].Index {
			t.Fatalf("segment %d first frame mismatch", i)
		}
		if got[i].Index != batch[i].Index {
			t.Fatalf("segment %d index mismatch", i)
		}
	}
	if live.emitted != len(batch) {
		t.Fatalf("emitted = %d", live.emitted)
	}
}

func TestLiveSegmenterRandomStrides(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		size := 2 + rng.Intn(30)
		stride := 1 + rng.Intn(40)
		seg := Segmenter{Size: size, Stride: stride, FPS: 25}
		frames := makeFrames(rng.Intn(300))
		batch, err := seg.Segment(frames)
		if err != nil {
			t.Fatal(err)
		}
		live, err := NewLiveSegmenter(seg)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, f := range frames {
			if s := live.Push(f); s != nil {
				if s.StartFrame != batch[count].StartFrame {
					t.Fatalf("size=%d stride=%d: segment %d start %d, want %d",
						size, stride, count, s.StartFrame, batch[count].StartFrame)
				}
				count++
			}
		}
		if count != len(batch) {
			t.Fatalf("size=%d stride=%d: live %d vs batch %d", size, stride, count, len(batch))
		}
	}
}

func TestLiveSegmenterInvalid(t *testing.T) {
	if _, err := NewLiveSegmenter(Segmenter{}); err == nil {
		t.Fatal("invalid live segmenter accepted")
	}
}

func BenchmarkLiveSegmenter(b *testing.B) {
	seg := NewSegmenter()
	frames := makeFrames(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live, _ := NewLiveSegmenter(seg)
		for _, f := range frames {
			live.Push(f)
		}
	}
}
