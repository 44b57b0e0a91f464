package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// rec builds a deterministic record for channel ch at seq.
func rec(ch string, seq uint64) Record {
	return Record{
		Channel:  ch,
		Seq:      seq,
		Action:   []float64{float64(seq), float64(seq) * 0.5, -1},
		Audience: []float64{1.0 / float64(seq+1)},
	}
}

// appendRec journals r through the production Append path.
func appendRec(t *testing.T, l *Log, r Record) {
	t.Helper()
	if err := l.Append(r.Channel, r.Seq, r.Action, r.Audience); err != nil {
		t.Fatalf("Append(%s/%d): %v", r.Channel, r.Seq, err)
	}
}

// collect replays l into a slice.
func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var got []Record
	if err := l.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for seq := uint64(1); seq <= 20; seq++ {
		for _, ch := range []string{"a", "b"} {
			r := rec(ch, seq)
			appendRec(t, l, r)
			want = append(want, r)
		}
	}
	if got := collect(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("live replay mismatch:\ngot  %v\nwant %v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery must find a clean log and replay identically.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened replay mismatch:\ngot  %v\nwant %v", got, want)
	}
	seqs := l2.MaxSeqs()
	if seqs["a"] != 20 || seqs["b"] != 20 {
		t.Fatalf("MaxSeqs = %v, want a=20 b=20", seqs)
	}
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	var fsyncs int
	var fsyncMu sync.Mutex
	l, err := Open(dir, Options{FsyncObserve: func(float64) {
		fsyncMu.Lock()
		fsyncs++
		fsyncMu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		perW    = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ch := fmt.Sprintf("ch-%d", w)
			for seq := uint64(1); seq <= perW; seq++ {
				if err := l.Append(ch, seq, []float64{float64(seq)}, nil); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got := collect(t, l)
	if len(got) != writers*perW {
		t.Fatalf("replayed %d records, want %d", len(got), writers*perW)
	}
	// Per-channel sequences must appear in order (single appender per
	// channel) even though channels interleave arbitrarily.
	last := map[string]uint64{}
	for _, r := range got {
		if r.Seq != last[r.Channel]+1 {
			t.Fatalf("channel %s: seq %d after %d", r.Channel, r.Seq, last[r.Channel])
		}
		last[r.Channel] = r.Seq
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fsyncMu.Lock()
	defer fsyncMu.Unlock()
	if fsyncs == 0 || fsyncs > writers*perW {
		t.Fatalf("fsync count %d outside (0, %d]", fsyncs, writers*perW)
	}
}

func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var want []Record
	for seq := uint64(1); seq <= 40; seq++ {
		r := rec("ch", seq)
		appendRec(t, l, r)
		want = append(want, r)
	}
	if n := l.Segments(); n < 3 {
		t.Fatalf("expected rotation into >=3 segments, got %d", n)
	}
	if got := collect(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay across rotated segments mismatch (%d vs %d records)", len(got), len(want))
	}

	// A cover below every sealed segment's max removes nothing.
	if n, err := l.Truncate(map[string]uint64{"ch": 0}); err != nil || n != 0 {
		t.Fatalf("Truncate(0) = %d, %v; want 0, nil", n, err)
	}
	before := l.Segments()
	// Covering everything removes every sealed segment, never the active one.
	n, err := l.Truncate(map[string]uint64{"ch": 40})
	if err != nil {
		t.Fatal(err)
	}
	if n != before-1 || l.Segments() != 1 {
		t.Fatalf("Truncate(40) removed %d of %d, %d segments remain", n, before, l.Segments())
	}
	// The surviving active segment still replays its own records, and the
	// journal still accepts appends.
	appendRec(t, l, rec("ch", 41))
	got := collect(t, l)
	if len(got) == 0 || got[len(got)-1].Seq != 41 {
		t.Fatalf("append after truncate not replayed: %v", got)
	}
	for _, r := range got {
		if r.Seq > 41 {
			t.Fatalf("unexpected record %v", r)
		}
	}
}

func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for seq := uint64(1); seq <= 5; seq++ {
		r := rec("ch", seq)
		appendRec(t, l, r)
		want = append(want, r)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill -9 mid-write: a prefix of a valid record lands on
	// the tail of the active segment.
	torn := AppendRecord(nil, rec("ch", 6))
	seg := filepath.Join(dir, segFiles.Name(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Read-only scans must stop silently at the tear.
	var scanned int
	if err := ScanDir(dir, func(Record) error { scanned++; return nil }); err != nil {
		t.Fatalf("ScanDir: %v", err)
	}
	if scanned != len(want) {
		t.Fatalf("ScanDir saw %d records, want %d", scanned, len(want))
	}

	// Open truncates the tear away and the log keeps working.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery replay mismatch:\ngot  %v\nwant %v", got, want)
	}
	appendRec(t, l2, rec("ch", 6))
	got := collect(t, l2)
	if len(got) != len(want)+1 || got[len(got)-1].Seq != 6 {
		t.Fatalf("append after recovery: %v", got)
	}
}

func TestRecoveryCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 30; seq++ {
		appendRec(t, l, rec("ch", seq))
	}
	segs := l.Segments()
	if segs < 3 {
		t.Fatalf("need >=3 segments, got %d", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte in the middle segment.
	seg2 := filepath.Join(dir, segFiles.Name(2))
	b, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(seg2, b, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// Everything after the corruption point is gone: segment 2 is cut at
	// the bad frame, segments 3+ deleted outright.
	for n := uint64(3); n <= uint64(segs); n++ {
		if _, err := os.Stat(filepath.Join(dir, segFiles.Name(n))); !os.IsNotExist(err) {
			t.Fatalf("segment %d survived recovery", n)
		}
	}
	got := collect(t, l2)
	if len(got) == 0 || len(got) >= 30 {
		t.Fatalf("recovered %d records, want a strict prefix of 30", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("recovered prefix broken at %d: seq %d", i, r.Seq)
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("ch", 1, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

// TestAppendRejectsOversizedRecords pins the write-side bounds: a channel
// id or vector too long for the uint16 framing would wrap on encode and
// decode as corrupt, so recovery would truncate the journal at it and
// silently drop every later acknowledged record. Append must refuse such
// records up front, without poisoning the log for well-formed ones.
func TestAppendRejectsOversizedRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendRec(t, l, rec("ch", 1))

	if err := l.Append("ch", 2, make([]float64, maxVectorLen+1), nil); !errors.Is(err, ErrRecordBounds) {
		t.Fatalf("oversized action vector: %v, want ErrRecordBounds", err)
	}
	if err := l.Append("ch", 2, nil, make([]float64, maxVectorLen+1)); !errors.Is(err, ErrRecordBounds) {
		t.Fatalf("oversized audience vector: %v, want ErrRecordBounds", err)
	}
	if err := l.Append(strings.Repeat("c", maxChannelLen+1), 2, nil, nil); !errors.Is(err, ErrRecordBounds) {
		t.Fatalf("oversized channel id: %v, want ErrRecordBounds", err)
	}

	// The rejection is per-record, not sticky, and nothing was written.
	appendRec(t, l, rec("ch", 2))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("recovered %v, want seqs 1,2 only", got)
	}
}

// TestCloseReleasesGroupCommitWaiters closes the log while appenders are
// in flight: every Append must resolve to nil (its record rode the final
// sync) or ErrClosed — never a sync attempt against the closed file
// surfacing as a spurious sticky failure.
func TestCloseReleasesGroupCommitWaiters(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 6
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ch := fmt.Sprintf("c%d", w)
			for seq := uint64(1); ; seq++ {
				if err := l.Append(ch, seq, []float64{float64(seq)}, nil); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond) // let appenders pile into the group commit
	if err := l.Close(); err != nil {
		t.Fatalf("Close with appenders in flight: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("appender saw %v, want ErrClosed", err)
		}
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		append([]byte{0xff, 0xff, 0xff, 0x7f}, make([]byte, 16)...), // absurd length
		make([]byte, 64), // zero length prefix
	}
	for i, b := range cases {
		if _, _, err := DecodeRecord(b); err == nil {
			t.Fatalf("case %d: garbage decoded without error", i)
		}
	}
	// A flipped payload bit must fail the checksum.
	good := AppendRecord(nil, rec("ch", 7))
	good[frameHeader+1] ^= 1
	if _, _, err := DecodeRecord(good); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("bit flip decoded: %v", err)
	}
}

// TestTombstoneRoundTrip: a record with both vectors empty — a channel's
// detach — survives the codec as itself, and an observation is never one.
func TestTombstoneRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		rec  Record
		want bool
	}{
		{Record{Channel: "ch", Seq: 13}, true},
		{Record{Channel: "ch", Seq: 14, Action: []float64{1}, Audience: []float64{2}}, false},
	} {
		got, _, err := DecodeRecord(AppendRecord(nil, tc.rec))
		if err != nil || got.Seq != tc.rec.Seq || got.Tombstone() != tc.want {
			t.Fatalf("round trip of %+v = %+v, %v; want Tombstone() = %v", tc.rec, got, err, tc.want)
		}
	}
}

// TestTruncateStopsAtFirstUncoveredSegment: truncation takes a prefix. A
// covered segment behind an uncovered one stays, so a channel's tombstone
// is never deleted while an earlier record of the channel survives (replay
// would bring the channel back).
func TestTruncateStopsAtFirstUncoveredSegment(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	feat := make([]float64, 8)
	// "x" and "pinned" share the first segment; later segments hold x alone,
	// ending in its tombstone.
	if err := l.Append("pinned", 1, feat, feat); err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	for l.Segments() < 4 {
		seq++
		if err := l.Append("x", seq, feat, feat); err != nil {
			t.Fatal(err)
		}
	}
	seq++
	if err := l.Append("x", seq, nil, nil); err != nil {
		t.Fatal(err)
	}
	before := l.Segments()
	if n, err := l.Truncate(map[string]uint64{"x": seq}); err != nil || n != 0 || l.Segments() != before {
		t.Fatalf("Truncate with the first segment uncovered removed %d (%v); want the whole journal kept", n, err)
	}
	if n, err := l.Truncate(map[string]uint64{"x": seq, "pinned": 1}); err != nil || n != before-1 {
		t.Fatalf("Truncate with everything covered removed %d of %d sealed (%v)", n, before-1, err)
	}
}
