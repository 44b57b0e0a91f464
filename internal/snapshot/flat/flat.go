// Package flat is the version-4 state format: the one record a model file,
// a detector snapshot, a pool checkpoint entry, a channel export and a
// failover upload are written in. A record is
//
//	magic    8 bytes   Magic
//	version  uint32    Version
//	kind     uint32    Kind
//	count    uint32    number of sections
//	table    count × (tag uint32, size uint64)
//	sections their bodies, in table order
//
// all little-endian. A section body is its fixed fields, each one 8-byte
// word (integers as int64, booleans as 0 or 1, floats as their bits), then
// its arrays as raw float64 bits, sized by the fields. A writer encodes
// from the arrays that hold the state through one pooled bufio.Writer; a
// reader decodes into the arrays that will hold it. Versions 1 to 3 were
// gob streams (package snapshot), which the magic's first byte cannot open.
package flat

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// Magic opens every record.
const Magic = "\x89AOVLIS\n"

// Version is the codec version of a record.
const Version = 4

// Kind is what a record holds.
type Kind uint32

const (
	KindModel         Kind = 1 + iota // core.Model.Save and SaveRuntime
	KindDetector                      // aovlis.Detector.Snapshot: its whole runtime
	KindSavedDetector                 // aovlis.Detector.Save: configuration, τ and weights
)

// Section tags, in the order a record carries them.
const (
	TagChannel  uint32 = 1 + iota // the channel a detector record is the state of
	TagModel                      // the model's configuration
	TagParams                     // the weights, in sorted-name order
	TagAdam                       // the optimiser's step count and moments
	TagDetector                   // configuration, τ, counters and window
	TagTier                       // the tier gate's anchor and counters
	TagUpdater                    // the dynamic updater's sketches and log
)

const (
	headerSize = len(Magic) + 12
	entrySize  = 12
	maxCount   = 16
	// maxUnsized bounds what is read of a source that cannot tell its
	// length.
	maxUnsized = 1 << 28
)

// Fields is what a section's fixed fields are visited with: an Encoder
// writes each one, a Decoder overwrites it, so one function describes a
// struct's fields for both. A field is an *int, *int64, *float64 or *bool.
type Fields interface{ Words(fields ...any) }

// Section is one section of a record being written. Write calls Put twice,
// first on an Encoder that only counts, to size the section.
type Section struct {
	Tag uint32
	Put func(*Encoder)
}

// Encoder writes section bodies. Once a write fails it only counts, and
// Write returns the error.
type Encoder struct {
	w *bufio.Writer // nil while sizing and after a failed write
	n int64
}

var writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 16<<10) }}

// Write writes a record of kind with sections to w. A w with a Grow method
// (a bytes.Buffer) is grown to the record's size first.
func Write(w io.Writer, kind Kind, sections ...Section) error {
	sizes := make([]int64, len(sections))
	total := int64(headerSize + entrySize*len(sections))
	for i, s := range sections {
		count := Encoder{}
		s.Put(&count)
		sizes[i], total = count.n, total+count.n
	}
	if g, ok := w.(interface{ Grow(int) }); ok && total <= math.MaxInt32 {
		g.Grow(int(total))
	}
	bw := writers.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() { bw.Reset(nil); writers.Put(bw) }()
	le := binary.LittleEndian
	b := le.AppendUint32(le.AppendUint32(le.AppendUint32(append(bw.AvailableBuffer(), Magic...), Version), uint32(kind)), uint32(len(sections)))
	for i, s := range sections {
		b = le.AppendUint64(le.AppendUint32(b, s.Tag), uint64(sizes[i]))
	}
	bw.Write(b)
	for i, s := range sections {
		e := Encoder{w: bw}
		if s.Put(&e); e.n != sizes[i] {
			return fmt.Errorf("flat: section %d wrote %d bytes, sized %d", s.Tag, e.n, sizes[i])
		}
	}
	return bw.Flush()
}

// room makes room for a word in e's buffer and reports whether e writes.
func (e *Encoder) room() bool {
	if e.w != nil && e.w.Available() < 8 && e.w.Flush() != nil {
		e.w = nil
	}
	return e.w != nil
}

func (e *Encoder) word(v uint64) {
	if e.n += 8; e.room() {
		e.w.Write(binary.LittleEndian.AppendUint64(e.w.AvailableBuffer(), v))
	}
}

// Words writes fields.
func (e *Encoder) Words(fields ...any) {
	for _, p := range fields {
		switch p := p.(type) {
		case *int:
			e.word(uint64(*p))
		case *int64:
			e.word(uint64(*p))
		case *float64:
			e.word(math.Float64bits(*p))
		case *bool:
			v := uint64(0)
			if *p {
				v = 1
			}
			e.word(v)
		default:
			panic(fmt.Sprintf("flat: a field of type %T", p))
		}
	}
}

// Floats writes the bits of v.
func (e *Encoder) Floats(v []float64) {
	for e.n += 8 * int64(len(v)); len(v) > 0 && e.room(); {
		b := e.w.AvailableBuffer()
		k := min(len(v), cap(b)/8)
		for _, x := range v[:k] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		e.w.Write(b)
		v = v[k:]
	}
}

// Bytes writes b as it is: a section of bytes has no fixed fields.
func (e *Encoder) Bytes(b []byte) {
	if e.n += int64(len(b)); e.w != nil {
		e.w.Write(b)
	}
}

// Decoder reads a record's sections in table order. Its first error
// sticks: every read after it reads zeros, and Err and Close return it.
type Decoder struct {
	r     *bufio.Reader
	tags  []uint32
	sizes []int64
	next  int   // the next section of the table
	left  int64 // bytes left in the open section
	err   error
}

// Open reads the header and section table of a record of kind from r.
// When r does not open with Magic it returns no Decoder but r, buffered,
// for the gob readers of versions 1 to 3. The sections must fit in the
// bytes r holds: a bytes or strings Reader, a bytes.Buffer and a regular
// file tell how many, and any other r is read into memory first, as its
// bytes arrive. No read of the Decoder allocates for more values than its
// section declares, so a record allocates no more than its input holds.
func Open(r io.Reader, kind Kind) (*Decoder, *bufio.Reader, error) {
	if br, ok := r.(*bufio.Reader); ok && !isRecord(br) {
		return nil, br, nil // a gob stream, which its readers bound as they go
	}
	avail := int64(-1)
	switch s := r.(type) {
	case interface{ Len() int }:
		avail = int64(s.Len())
	case *os.File:
		fi, err := s.Stat()
		if at, err2 := s.Seek(0, io.SeekCurrent); err == nil && err2 == nil && fi.Mode().IsRegular() {
			avail = fi.Size() - at
		}
	}
	if avail < 0 {
		b, err := io.ReadAll(io.LimitReader(r, maxUnsized))
		if err != nil {
			return nil, nil, fmt.Errorf("flat: reading record: %w", err)
		}
		r, avail = bytes.NewReader(b), int64(len(b))
	}
	br := bufio.NewReaderSize(r, 2048)
	if !isRecord(br) {
		return nil, br, nil
	}
	var h [headerSize]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return nil, nil, fmt.Errorf("flat: reading header: %w", err)
	}
	le := binary.LittleEndian
	version, k, count := le.Uint32(h[8:]), Kind(le.Uint32(h[12:])), le.Uint32(h[16:])
	switch {
	case version != Version:
		return nil, nil, fmt.Errorf("flat: version %d, want %d", version, Version)
	case k != kind:
		return nil, nil, fmt.Errorf("flat: kind %d, want %d", k, kind)
	case count > maxCount:
		return nil, nil, fmt.Errorf("flat: %d sections, at most %d", count, maxCount)
	}
	avail -= int64(headerSize + entrySize*int(count))
	d := &Decoder{r: br, tags: make([]uint32, count), sizes: make([]int64, count)}
	for i := range d.tags {
		var e [entrySize]byte
		if _, err := io.ReadFull(br, e[:]); err != nil {
			return nil, nil, fmt.Errorf("flat: reading section table: %w", err)
		}
		d.tags[i], d.sizes[i] = le.Uint32(e[:]), int64(le.Uint64(e[4:]))
		if avail -= d.sizes[i]; d.sizes[i] < 0 || avail < 0 {
			return nil, nil, fmt.Errorf("flat: section %d declares %d bytes, more than the input holds", d.tags[i], d.sizes[i])
		}
	}
	return d, nil, nil
}

func isRecord(br *bufio.Reader) bool {
	b, _ := br.Peek(len(Magic))
	return string(b) == Magic
}

// Section opens the next section if its tag is tag and reports whether it
// did; the section before it must have been read to its end.
func (d *Decoder) Section(tag uint32) bool {
	if d.err != nil || d.next == len(d.tags) || d.tags[d.next] != tag {
		return false
	}
	if d.left != 0 {
		d.fail(fmt.Errorf("flat: %d bytes left unread before section %d", d.left, tag))
		return false
	}
	d.left, d.next = d.sizes[d.next], d.next+1
	return true
}

// Left returns the bytes left in the open section.
func (d *Decoder) Left() int64 { return d.left }

// Fits reports whether n values of width bytes fit in the open section,
// failing the decoder if not.
func (d *Decoder) Fits(n, width int) bool {
	if d.err == nil && (n < 0 || width <= 0 || int64(n) > d.left/int64(width)) {
		d.fail(fmt.Errorf("flat: %d values of %d bytes do not fit in the section's %d", n, width, d.left))
	}
	return d.err == nil
}

// fail records err as the decoder's error unless it has one.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the open section's next n bytes, at most the reader's
// buffer, valid until the next read.
func (d *Decoder) take(n int) []byte {
	if d.err != nil || int64(n) > d.left {
		d.fail(fmt.Errorf("flat: a section ends %d bytes short", int64(n)-d.left))
		return nil
	}
	b, err := d.r.Peek(n)
	if err != nil {
		d.fail(fmt.Errorf("flat: reading section: %w", io.ErrUnexpectedEOF))
		return nil
	}
	d.r.Discard(n)
	d.left -= int64(n)
	return b
}

// Words reads fields.
func (d *Decoder) Words(fields ...any) {
	for _, p := range fields {
		var v uint64
		if b := d.take(8); b != nil {
			v = binary.LittleEndian.Uint64(b)
		}
		switch p := p.(type) {
		case *int:
			if *p = int(v); int64(*p) != int64(v) {
				d.fail(fmt.Errorf("flat: %d overflows int", int64(v)))
			}
		case *int64:
			*p = int64(v)
		case *float64:
			*p = math.Float64frombits(v)
		case *bool:
			if *p = v == 1; v > 1 {
				d.fail(errors.New("flat: a boolean is neither 0 nor 1"))
			}
		default:
			panic(fmt.Sprintf("flat: a field of type %T", p))
		}
	}
}

// FloatsInto reads len(dst) floats into dst.
func (d *Decoder) FloatsInto(dst []float64) {
	for len(dst) > 0 {
		k := min(len(dst), d.r.Size()/8)
		b := d.take(8 * k)
		if b == nil {
			return
		}
		for i := range dst[:k] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		dst = dst[k:]
	}
}

// Floats reads n floats into a new slice, if the section holds them.
func (d *Decoder) Floats(n int) []float64 {
	if !d.Fits(n, 8) {
		return nil
	}
	v := make([]float64, n)
	d.FloatsInto(v)
	return v
}

// Bytes reads the rest of the open section, which Open found the input
// holds.
func (d *Decoder) Bytes() []byte {
	b := make([]byte, 0, d.left)
	for d.left > 0 && d.err == nil {
		b = append(b, d.take(int(min(d.left, int64(d.r.Size()))))...)
	}
	return b
}

// Err returns the decoder's error.
func (d *Decoder) Err() error { return d.err }

// Close checks that every section was read to its end.
func (d *Decoder) Close() error {
	if d.left != 0 || d.next != len(d.tags) {
		d.fail(fmt.Errorf("flat: %d bytes and %d sections left unread", d.left, len(d.tags)-d.next))
	}
	return d.err
}
