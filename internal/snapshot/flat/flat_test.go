package flat

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// record writes a two-section record: fixed fields and a float array, then
// bytes.
func record(t *testing.T, floats []float64) []byte {
	t.Helper()
	n, f, ok := len(floats), -0.0, true
	var buf bytes.Buffer
	err := Write(&buf, KindModel,
		Section{Tag: TagParams, Put: func(e *Encoder) {
			e.Words(&n, &f, &ok)
			e.Floats(floats)
		}},
		Section{Tag: TagChannel, Put: func(e *Encoder) { e.Bytes([]byte("ch")) }})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// unsized hides every method of the wrapped reader but Read, so Open
// cannot tell its length.
type unsized struct{ r io.Reader }

func (u unsized) Read(p []byte) (int, error) { return u.r.Read(p) }

func open(t *testing.T, b []byte, sized bool) (*Decoder, error) {
	t.Helper()
	var r io.Reader = bytes.NewReader(b)
	if !sized {
		r = unsized{r}
	}
	d, old, err := Open(r, KindModel)
	if old != nil {
		t.Fatalf("a record did not open as one: %q", b[:min(len(b), 8)])
	}
	return d, err
}

// TestRoundTrip: what an Encoder writes a Decoder reads back bit for bit,
// arrays longer than the reader's buffer included, and Close accepts a
// record read to its end.
func TestRoundTrip(t *testing.T) {
	floats := make([]float64, 1000)
	for i := range floats {
		floats[i] = float64(i) / 7
	}
	copy(floats, []float64{1, math.Inf(-1), math.Float64frombits(0x7ff8000000000123), 5e-324, 3})
	b := record(t, floats)
	for _, sized := range []bool{true, false} {
		d, err := open(t, b, sized)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		var f float64
		var ok bool
		if !d.Section(TagParams) {
			t.Fatal("no params section")
		}
		d.Words(&n, &f, &ok)
		got := d.Floats(n)
		if !d.Section(TagChannel) {
			t.Fatalf("no channel section: %v", d.Err())
		}
		if ch := string(d.Bytes()); ch != "ch" || !ok || math.Float64bits(f) != math.Float64bits(-0.0) {
			t.Fatalf("read %q, %v, %v", ch, ok, f)
		}
		for i := range floats {
			if math.Float64bits(got[i]) != math.Float64bits(floats[i]) {
				t.Fatalf("float %d reads %x, wrote %x", i, math.Float64bits(got[i]), math.Float64bits(floats[i]))
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	gob := []byte("AOVLIS-SNAP, not a flat record")
	if d, old, err := Open(bytes.NewReader(gob), KindModel); d != nil || old == nil || err != nil {
		t.Fatalf("a gob stream opened as %v, %v, %v", d, old, err)
	} else if rest, _ := io.ReadAll(old); !bytes.Equal(rest, gob) {
		t.Fatalf("the gob reader holds %q", rest)
	}
}

// TestHostileRecords: a record is refused at its header when its sections
// declare more bytes than the input holds, whether the input tells its
// length or not, and a read never allocates for more values than its
// section holds.
func TestHostileRecords(t *testing.T) {
	b := record(t, make([]float64, 4))
	grown := bytes.Clone(b)
	binary.LittleEndian.PutUint64(grown[headerSize+4:], 1<<40) // the first section's size
	for name, tc := range map[string]struct {
		b     []byte
		sized bool
		want  string
	}{
		"size past the input":        {grown, true, "declares"},
		"size past an unsized input": {grown, false, "declares"},
		"truncated":                  {b[:len(b)-1], true, "declares"},
		"truncated and unsized":      {b[:len(b)-1], false, "declares"},
		"wrong kind":                 {append(bytes.Clone(b[:12]), 9, 0, 0, 0, 0, 0, 0, 0), true, "kind"},
		"future version":             {append([]byte(Magic), 5, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0), true, "version"},
		"too many sections":          {append(bytes.Clone(b[:16]), 0xff, 0, 0, 0), true, "sections"},
		"table cut":                  {b[:headerSize+4], false, "table"},
		"header cut":                 {b[:10], false, "header"},
	} {
		if _, err := open(t, tc.b, tc.sized); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Open = %v, want an error naming %q", name, err, tc.want)
		}
	}
	d, err := open(t, b, true)
	if err != nil {
		t.Fatal(err)
	}
	d.Section(TagParams)
	if v := d.Floats(1 << 30); v != nil || d.Err() == nil {
		t.Fatal("Floats read more values than its section holds")
	}
	if d.Close() == nil {
		t.Fatal("Close accepts a failed decoder")
	}
	d, _ = open(t, b, true)
	d.Section(TagParams)
	if d.Section(TagChannel) || d.Close() == nil {
		t.Fatal("a section left unread went unnoticed")
	}
}

// TestUnsizedInputAllocatesWhatArrives: a record from a source that cannot
// tell its length, whose sections declare 64 MiB it never sends, is
// refused having allocated about what it sent, not what it declared.
func TestUnsizedInputAllocatesWhatArrives(t *testing.T) {
	b := record(t, nil)
	binary.LittleEndian.PutUint64(b[headerSize+entrySize+4:], 64<<20) // the channel section's size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := open(t, b, false)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "declares") {
		t.Fatalf("Open = %v, want the declared section refused", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("opening a %d-byte record allocated %d bytes", len(b), got)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	k := min(len(p), f.n)
	if f.n -= k; k < len(p) {
		return k, errors.New("the disk is full")
	}
	return k, nil
}

// TestWriteReturnsWriteErrors: a writer that fails at any point of a
// record, its header, its words or its arrays, before or after the
// writer's buffer first fills, fails Write, which returns rather than
// retrying the write.
func TestWriteReturnsWriteErrors(t *testing.T) {
	floats := make([]float64, 10000)
	n, f, ok := 3, 1.5, true
	for _, at := range []int{0, 7, headerSize + 30, 16 << 10, 16<<10 + 5, 40000, 80000} {
		done := make(chan error, 1)
		go func() {
			done <- Write(&failAfter{at}, KindModel,
				Section{Tag: TagModel, Put: func(e *Encoder) { e.Words(&n, &f, &ok) }},
				Section{Tag: TagParams, Put: func(e *Encoder) { e.Floats(floats); e.Words(&n, &f, &ok) }},
				Section{Tag: TagChannel, Put: func(e *Encoder) { e.Bytes(make([]byte, 20<<10)) }})
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("a write failing after %d bytes: Write returned no error", at)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("a write failing after %d bytes: Write has not returned", at)
		}
	}
}

// TestWriteGrowsBufferOnce: writing into a bytes.Buffer sizes it once —
// growing by doubling would take a dozen allocations for this record; the
// few left are the sizes, the closure and, under -race, a pooled writer
// the race detector dropped.
func TestWriteGrowsBufferOnce(t *testing.T) {
	floats := make([]float64, 10000)
	var buf bytes.Buffer
	n := testing.AllocsPerRun(10, func() {
		buf = bytes.Buffer{}
		Write(&buf, KindModel, Section{Tag: TagParams, Put: func(e *Encoder) { e.Floats(floats) }})
	})
	if buf.Len() != headerSize+entrySize+8*len(floats) || n > 6 {
		t.Fatalf("a %d-byte record in %v allocations", buf.Len(), n)
	}
}
