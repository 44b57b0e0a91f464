package wire

import (
	"bufio"
	"bytes"
	"io"
)

// Feeder moves inbound messages off a blocking reader onto a channel, so a
// stream's driver can select over {next message, oldest outcome}: a decision
// streams out the moment it resolves, even while the client is idle
// mid-stream. Reading inline instead would park the driver in Read with
// resolved verdicts stuck behind it — an idle client (or a router that
// stopped sending while it drains acknowledgements for a migration) would
// wait indefinitely on decisions the server already had.
type Feeder struct {
	// C delivers each message in a recycled buffer the receiver hands back
	// with Recycle. It is closed when the reader ends or stop fires.
	C    chan []byte
	free chan []byte
	err  error
}

// Feed starts the feeder goroutine over next, which blocks for one message
// at a time (valid until the following call) and ends the stream with
// io.EOF or a real error. depth is how many messages the feeder may hold
// ahead of a receiver that is not receiving: 2 for a request body (one
// being filled, one with the receiver), what it must absorb meanwhile for
// a relay whose receiver can be parked elsewhere. Closing stop ends the
// feeder between messages; a next parked in a read returns when its
// transport is closed, which is the caller's to arrange (an HTTP server
// closes the request body when the handler returns).
func Feed(stop <-chan struct{}, next func() ([]byte, error), depth int) *Feeder {
	// C and free each have room for every buffer, so only the wait for a
	// free buffer — the receiver's pace — ever blocks. Buffers grow to the
	// lines they carry.
	f := &Feeder{C: make(chan []byte, depth), free: make(chan []byte, depth)}
	for i := 0; i < depth; i++ {
		f.free <- nil
	}
	go func() {
		defer close(f.C)
		for {
			var buf []byte
			select {
			case buf = <-f.free:
			case <-stop:
				return
			}
			msg, err := next()
			if err != nil {
				if err != io.EOF {
					f.err = err // happens-before the close the receiver observes
				}
				return
			}
			f.C <- append(buf[:0], msg...)
		}
	}()
	return f
}

// Recycle returns a buffer received from C. The free list holds every
// buffer in flight, so it never blocks.
func (f *Feeder) Recycle(buf []byte) { f.free <- buf }

// Err is the error that ended the reader, nil after a clean io.EOF. It may
// be read once C is closed.
func (f *Feeder) Err() error { return f.err }

// MaxLine bounds one NDJSON line, terminator included: feature vectors can
// be wide, but a line that does not end within MaxLine bytes ends its stream
// with bufio.ErrTooLong.
const MaxLine = 1 << 20

// scanBufInit is the line buffer every stream starts with. bufio.Scanner
// doubles it up to MaxLine only for a line that needs the room, so a stream
// holds memory in proportion to its longest line, not to the limit.
const scanBufInit = 4 << 10

// ScanLines adapts an NDJSON body to Feed: each call returns the next
// non-blank line, trimmed, and io.EOF at the clean end.
func ScanLines(r io.Reader) func() ([]byte, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, scanBufInit), MaxLine)
	return func() ([]byte, error) {
		for sc.Scan() {
			if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
				return line, nil
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
}

// LineWriter is the response side of an NDJSON stream. Lines are written
// eagerly but flushed lazily: Flush costs a chunked-transfer write syscall,
// and at tens of thousands of segments per second one per decision dominates
// the single-core budget. Drivers call Flush exactly when they are about to
// block, so every decision they hold is on the wire before they wait for
// anything; the server's own end-of-handler flush covers returns.
type LineWriter struct {
	w     ResponseWriter
	dirty bool
}

// NewLineWriter wraps w.
func NewLineWriter(w ResponseWriter) *LineWriter { return &LineWriter{w: w} }

// WriteLine buffers one newline-terminated line.
func (lw *LineWriter) WriteLine(line []byte) error {
	_, err := lw.w.Write(line)
	lw.dirty = true
	return err
}

// Flush pushes buffered lines to the client, if there are any.
func (lw *LineWriter) Flush() {
	if lw.dirty {
		lw.w.Flush()
		lw.dirty = false
	}
}
