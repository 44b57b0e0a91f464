// Package wal is the daemon's ingest write-ahead log (ISSUE 9): an
// append-only journal of accepted observations, written on the accept path
// before a segment enters its shard queue, so that a kill -9 loses no
// accepted segment — on restart the daemon restores the latest checkpoint
// and replays the journal tail through Observe.
//
// Layout and format. A log is a directory of numbered segment files
// (wal-00000001.seg, wal-00000002.seg, ...). Each record is framed as
//
//	[u32 payload length][u32 CRC32C(payload)][payload]
//
// little-endian, with the payload a fixed binary encoding of
// (channel, seq, action features, audience features). Records never span
// segment files; when the active segment exceeds SegmentBytes the log
// rotates to a fresh file at a record boundary.
//
// Durability contract. Append returns only after the record is covered by
// an fsync of the active segment. Concurrent appenders share fsyncs by
// group commit: one appender becomes the sync leader while the rest wait
// on its result — the same flush-on-idle shape the serving tier uses for
// network writes (ARCHITECTURE.md §14), applied to fdatasync batching.
// Under a single appender every Append pays one fsync; under concurrency
// the fsync amortises across every record written while the previous sync
// was in flight.
//
// Recovery. Open scans every segment in order and truncates the log at the
// first corrupt or torn record: the containing file is truncated to the
// last good offset and any later segment files are deleted (they were
// written after the corruption point, so their contents are not trusted).
// A torn final record is the expected kill -9 artifact — by the framing
// above it can only be the suffix of the last segment, and by the
// durability contract it was never acknowledged.
//
// Truncation. Sealed segments carry a per-channel max-sequence summary;
// once a checkpoint manifest covers every channel's summary (and the
// verdict ledger has flushed — the node orchestrates the order), the
// segment is deleted — oldest first, stopping at the first segment still
// needed, so a detach tombstone never goes before an earlier record of its
// channel. The active segment is never truncated in place.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aovlis/internal/durable"
)

// Record is one accepted observation.
type Record struct {
	// Channel is the channel id; Seq the channel's accept sequence
	// (1-based, assigned by the pool, numbering on from the sequence the
	// channel was attached at).
	Channel string
	Seq     uint64
	// Action and Audience are the segment's feature vectors. Both empty
	// marks a tombstone: the channel was detached at Seq, every earlier
	// record of it is dead, and a later incarnation continues the numbering
	// above it.
	Action   []float64
	Audience []float64
}

// Tombstone reports whether r records its channel's detach rather than an
// observation (the accept path never journals an observation without
// features).
func (r Record) Tombstone() bool { return len(r.Action) == 0 && len(r.Audience) == 0 }

// Frame and payload bounds. The limits exist to fail fast on garbage
// length prefixes instead of allocating gigabytes during recovery — and
// they are enforced on the write side too (Append returns ErrRecordBounds),
// because the channel and vector lengths travel as uint16s: an oversized
// field would wrap on encode, producing a CRC-valid record that fails
// structural decode and poisons recovery for everything after it.
const (
	frameHeader   = 8       // u32 length + u32 crc
	maxPayload    = 1 << 24 // 16 MiB per record
	maxChannelLen = 1 << 12
	maxVectorLen  = 1<<16 - 1 // must stay representable in the uint16 length field
)

// Errors returned by the journal.
var (
	// ErrClosed is returned by Append on a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrCorruptRecord marks a record that failed its CRC or structural
	// bounds; scanning stops at the first one.
	ErrCorruptRecord = errors.New("wal: corrupt record")
	// ErrRecordBounds is returned by Append for a record that cannot be
	// represented within the framing limits (channel id longer than
	// maxChannelLen, or a feature vector longer than maxVectorLen).
	// Nothing is written and the log stays usable: the error is the
	// caller's, not the journal's, so it is not sticky.
	ErrRecordBounds = errors.New("wal: record exceeds framing bounds")
	// errShortRecord marks a torn tail: fewer bytes remain than the frame
	// announces. Scanners treat it like ErrCorruptRecord but it is kept
	// distinct internally because a torn tail is the *expected* crash
	// artifact, not evidence of bit rot.
	errShortRecord = errors.New("wal: short record")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends the framed encoding of r to buf and returns the
// extended slice. The layout is the one DecodeRecord reverses. The caller
// must keep r within the codec bounds (validateRecord; Log.Append
// enforces them): the channel and vector lengths are framed as uint16s,
// so an oversized field would wrap and decode as corrupt.
func AppendRecord(buf []byte, r Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	p := len(buf)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Channel)))
	buf = append(buf, r.Channel...)
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Action)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Audience)))
	for _, v := range r.Action {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range r.Audience {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	payload := buf[p:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// validateRecord rejects fields DecodeRecord would refuse to read back —
// the write-side half of the structural bounds, checked before a single
// byte is framed.
func validateRecord(channel string, action, audience []float64) error {
	if len(channel) > maxChannelLen {
		return fmt.Errorf("%w: channel id length %d > %d", ErrRecordBounds, len(channel), maxChannelLen)
	}
	if len(action) > maxVectorLen || len(audience) > maxVectorLen {
		return fmt.Errorf("%w: vector lengths %d/%d > %d", ErrRecordBounds, len(action), len(audience), maxVectorLen)
	}
	return nil
}

// DecodeRecord decodes one framed record from the front of b, returning
// the record and the number of bytes consumed. It returns errShortRecord
// when b holds a prefix of a record (a torn tail) and ErrCorruptRecord
// when the frame is structurally invalid or fails its checksum.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < frameHeader {
		return Record{}, 0, errShortRecord
	}
	n := binary.LittleEndian.Uint32(b)
	crc := binary.LittleEndian.Uint32(b[4:])
	if n == 0 || n > maxPayload {
		return Record{}, 0, fmt.Errorf("%w: payload length %d", ErrCorruptRecord, n)
	}
	if uint32(len(b)-frameHeader) < n {
		return Record{}, 0, errShortRecord
	}
	payload := b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != crc {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	var r Record
	rest := payload
	need := func(k int) error {
		if len(rest) < k {
			return fmt.Errorf("%w: payload underrun", ErrCorruptRecord)
		}
		return nil
	}
	if err := need(2); err != nil {
		return Record{}, 0, err
	}
	cl := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if cl > maxChannelLen {
		return Record{}, 0, fmt.Errorf("%w: channel length %d", ErrCorruptRecord, cl)
	}
	if err := need(cl + 8 + 4); err != nil {
		return Record{}, 0, err
	}
	r.Channel = string(rest[:cl])
	rest = rest[cl:]
	r.Seq = binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	na := int(binary.LittleEndian.Uint16(rest))
	nu := int(binary.LittleEndian.Uint16(rest[2:]))
	rest = rest[4:]
	if na > maxVectorLen || nu > maxVectorLen {
		return Record{}, 0, fmt.Errorf("%w: vector lengths %d/%d", ErrCorruptRecord, na, nu)
	}
	if len(rest) != (na+nu)*8 {
		return Record{}, 0, fmt.Errorf("%w: payload size %d for %d+%d floats", ErrCorruptRecord, len(rest), na, nu)
	}
	if na > 0 {
		r.Action = make([]float64, na)
		for i := range r.Action {
			r.Action[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
		}
		rest = rest[na*8:]
	}
	if nu > 0 {
		r.Audience = make([]float64, nu)
		for i := range r.Audience {
			r.Audience[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
		}
	}
	return r, frameHeader + int(n), nil
}

// Options parameterises a Log.
type Options struct {
	// SegmentBytes is the rotation threshold for the active segment.
	// 0 means the 4 MiB default.
	SegmentBytes int64
	// FsyncObserve, when set, receives the duration in seconds of every
	// fsync the log issues — the daemon points it at its WAL fsync
	// latency histogram.
	FsyncObserve func(seconds float64)
}

// DefaultSegmentBytes is the rotation threshold when Options leaves it 0.
const DefaultSegmentBytes = 4 << 20

// segMeta indexes one sealed (no longer written) segment for truncation.
type segMeta struct {
	index   uint64
	maxSeqs map[string]uint64 // channel -> highest Seq in the segment
}

// Log is an append-only journal over one directory. All methods are safe
// for concurrent use.
type Log struct {
	dir      string
	segBytes int64
	obs      func(float64)

	mu     sync.Mutex
	cond   *sync.Cond
	f      *os.File
	index  uint64 // active segment index
	size   int64
	buf    []byte
	seqs   map[string]uint64 // active segment's channel -> max Seq
	sealed []segMeta

	written uint64 // group-commit tickets issued
	synced  uint64 // tickets covered by a completed fsync
	syncing bool
	failed  error // sticky first write/sync error
	closed  bool
}

// segFiles names the log's segment files.
var segFiles = durable.Numbered{Prefix: "wal-", Suffix: ".seg"}

// Open opens (creating if necessary) the journal in dir and runs recovery:
// every segment is scanned, and at the first corrupt or torn record the
// containing file is truncated to the last good offset and all later
// segment files are deleted. The returned log appends to the recovered
// tail.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{dir: dir, segBytes: opts.SegmentBytes, obs: opts.FsyncObserve}
	if l.segBytes <= 0 {
		l.segBytes = DefaultSegmentBytes
	}
	l.cond = sync.NewCond(&l.mu)
	l.seqs = make(map[string]uint64)

	idx, err := segFiles.List(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	var (
		lastIndex uint64
		lastSize  int64
	)
	for i, n := range idx {
		path := filepath.Join(dir, segFiles.Name(n))
		good, maxSeqs, scanErr := scanSegment(path, nil)
		if scanErr != nil && !errors.Is(scanErr, ErrCorruptRecord) && !errors.Is(scanErr, errShortRecord) {
			return nil, scanErr
		}
		if scanErr != nil {
			// Truncate at the last good record and drop every later file:
			// nothing past the first bad frame is trustworthy.
			if err := os.Truncate(path, good); err != nil {
				return nil, fmt.Errorf("wal: recovery truncate %s: %w", path, err)
			}
			for _, later := range idx[i+1:] {
				if err := os.Remove(filepath.Join(dir, segFiles.Name(later))); err != nil {
					return nil, fmt.Errorf("wal: recovery remove: %w", err)
				}
			}
			if err := durable.SyncDir(dir); err != nil {
				return nil, err
			}
			lastIndex, lastSize = n, good
			l.sealed = append(l.sealed, segMeta{index: n, maxSeqs: maxSeqs})
			break
		}
		lastIndex, lastSize = n, good
		l.sealed = append(l.sealed, segMeta{index: n, maxSeqs: maxSeqs})
	}

	if lastIndex == 0 {
		lastIndex = 1
		lastSize = 0
	} else {
		// The last surviving segment stays active: pop its sealed entry
		// back into the live summary.
		tail := l.sealed[len(l.sealed)-1]
		l.sealed = l.sealed[:len(l.sealed)-1]
		l.seqs = tail.maxSeqs
	}
	f, err := os.OpenFile(filepath.Join(dir, segFiles.Name(lastIndex)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	if err := durable.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	l.f, l.index, l.size = f, lastIndex, lastSize
	return l, nil
}

// scanSegment decodes path's records in order, calling fn (when non-nil)
// for each. It returns the offset after the last good record, the
// per-channel max sequence summary of the good prefix, and the decode
// error that stopped the scan (nil at a clean end of file). An error from
// fn aborts the scan and is returned verbatim.
func scanSegment(path string, fn func(Record) error) (int64, map[string]uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	maxSeqs := make(map[string]uint64)
	var off int64
	for int(off) < len(b) {
		r, n, err := DecodeRecord(b[off:])
		if err != nil {
			return off, maxSeqs, err
		}
		if fn != nil {
			if err := fn(r); err != nil {
				return off, maxSeqs, err
			}
		}
		if r.Seq > maxSeqs[r.Channel] {
			maxSeqs[r.Channel] = r.Seq
		}
		off += int64(n)
	}
	return off, maxSeqs, nil
}

// ScanDir replays dir's journal read-only, in segment order, calling fn
// for each well-formed record. The scan stops silently at the first
// corrupt or torn record (the expected crash artifact) without modifying
// any file — this is the failover path's view of a dead node's journal.
// An error from fn aborts the scan and is returned.
func ScanDir(dir string, fn func(Record) error) error {
	idx, err := segFiles.List(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, n := range idx {
		_, _, scanErr := scanSegment(filepath.Join(dir, segFiles.Name(n)), fn)
		if scanErr == nil {
			continue
		}
		if errors.Is(scanErr, ErrCorruptRecord) || errors.Is(scanErr, errShortRecord) {
			return nil
		}
		return scanErr
	}
	return nil
}

// Replay calls fn for every record in the journal, oldest first. It is
// meant for the boot path, after Open's recovery has already trimmed the
// log, so any decode error here is reported rather than swallowed.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	segs := make([]uint64, 0, len(l.sealed)+1)
	for _, s := range l.sealed {
		segs = append(segs, s.index)
	}
	segs = append(segs, l.index)
	dir := l.dir
	l.mu.Unlock()
	for _, n := range segs {
		if _, _, err := scanSegment(filepath.Join(dir, segFiles.Name(n)), fn); err != nil {
			return err
		}
	}
	return nil
}

// MaxSeqs returns the highest journaled sequence per channel across every
// segment — what the pool's per-channel sequence counters must resume
// after.
func (l *Log) MaxSeqs() map[string]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]uint64)
	for _, s := range l.sealed {
		for ch, seq := range s.maxSeqs {
			if seq > out[ch] {
				out[ch] = seq
			}
		}
	}
	for ch, seq := range l.seqs {
		if seq > out[ch] {
			out[ch] = seq
		}
	}
	return out
}

// Append journals one accepted observation and returns once an fsync
// covers it (group commit: concurrent appenders share fsyncs). A write or
// sync failure is sticky — every later Append fails — because a journal
// that can no longer promise durability must stop acknowledging. A record
// outside the framing bounds fails with ErrRecordBounds before anything
// is written; that rejection is per-record, not sticky.
func (l *Log) Append(channel string, seq uint64, action, audience []float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	if err := validateRecord(channel, action, audience); err != nil {
		return err
	}
	if l.size >= l.segBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	l.buf = AppendRecord(l.buf[:0], Record{Channel: channel, Seq: seq, Action: action, Audience: audience})
	if _, err := l.f.Write(l.buf); err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		l.cond.Broadcast()
		return l.failed
	}
	l.size += int64(len(l.buf))
	if seq > l.seqs[channel] {
		l.seqs[channel] = seq
	}
	l.written++
	ticket := l.written
	for l.synced < ticket {
		if l.failed != nil {
			return l.failed
		}
		if l.closed {
			// Close began while we were parked and this ticket is not
			// yet covered (Close's own final sync will cover it, but
			// that has not happened from this waiter's point of view):
			// the record's durability is unknown and the caller must
			// not treat it as acknowledged. Never become a sync leader
			// once closed — Close relies on that to terminate.
			return ErrClosed
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		// Become the sync leader: everything written up to here rides
		// this fsync.
		l.syncing = true
		target := l.written
		f := l.f
		l.mu.Unlock()
		start := time.Now()
		err := f.Sync()
		elapsed := time.Since(start)
		l.mu.Lock()
		l.syncing = false
		if l.obs != nil {
			l.obs(elapsed.Seconds())
		}
		if err != nil {
			l.failed = fmt.Errorf("wal: fsync: %w", err)
		} else if target > l.synced {
			l.synced = target
		}
		l.cond.Broadcast()
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one. Called
// with l.mu held; rotation is rare so the final sync of the old file is
// allowed to block appenders.
func (l *Log) rotateLocked() error {
	for l.syncing {
		l.cond.Wait()
	}
	if l.closed {
		// Close slipped in while we waited for the sync leader; the old
		// segment is (or is about to be) closed under it.
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	if l.synced < l.written {
		if err := l.f.Sync(); err != nil {
			l.failed = fmt.Errorf("wal: fsync: %w", err)
			l.cond.Broadcast()
			return l.failed
		}
		l.synced = l.written
		l.cond.Broadcast()
	}
	if err := l.f.Close(); err != nil {
		l.failed = fmt.Errorf("wal: rotate close: %w", err)
		return l.failed
	}
	l.sealed = append(l.sealed, segMeta{index: l.index, maxSeqs: l.seqs})
	l.index++
	f, err := os.OpenFile(filepath.Join(l.dir, segFiles.Name(l.index)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.failed = fmt.Errorf("wal: rotate open: %w", err)
		return l.failed
	}
	if err := durable.SyncDir(l.dir); err != nil {
		f.Close()
		l.failed = err
		return l.failed
	}
	l.f, l.size = f, 0
	l.seqs = make(map[string]uint64)
	return nil
}

// Truncate deletes the sealed segments, oldest first, whose records are all
// covered by cover (channel -> sequence floor: a record is covered when
// cover[channel] >= record.Seq), and stops at the first one that is not: a
// journal loses only a prefix, so replay never meets a channel's records
// with its detach tombstone already gone. The node calls it after a
// checkpoint manifest and a ledger flush have both committed, so nothing a
// deleted segment could replay is lost. The active segment is never
// deleted. It returns the number of segment files removed.
func (l *Log) Truncate(cover map[string]uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	var (
		removed int
		retErr  error
	)
prefix:
	for _, s := range l.sealed {
		for ch, seq := range s.maxSeqs {
			if cover[ch] < seq {
				break prefix
			}
		}
		if err := os.Remove(filepath.Join(l.dir, segFiles.Name(s.index))); err != nil {
			retErr = fmt.Errorf("wal: truncate: %w", err)
			break
		}
		removed++
	}
	l.sealed = l.sealed[removed:]
	if retErr != nil {
		return removed, retErr
	}
	if removed > 0 {
		if err := durable.SyncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Segments reports the number of segment files the log currently owns
// (sealed plus active).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// Close syncs and closes the active segment. Appends in flight complete
// first; later Appends fail with ErrClosed. Appenders parked in the
// group-commit wait are covered by the final sync here (their Append
// returns nil — the record is durable); a failed final sync surfaces to
// them as the sticky error instead, never as a spurious write to the
// closed file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// Refuse new appends before waiting out the in-flight sync leader:
	// with writers still arriving, each finished sync would breed the
	// next leader and this wait would livelock. Once closed is set no
	// parked waiter elects itself leader (Append's wait loop checks it),
	// so syncing goes false exactly once.
	l.closed = true
	for l.syncing {
		l.cond.Wait()
	}
	if l.failed != nil {
		l.cond.Broadcast()
		l.f.Close()
		return l.failed
	}
	var err error
	if l.synced < l.written {
		if err = l.f.Sync(); err == nil {
			l.synced = l.written
		} else {
			l.failed = fmt.Errorf("wal: close fsync: %w", err)
		}
	}
	l.cond.Broadcast()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
