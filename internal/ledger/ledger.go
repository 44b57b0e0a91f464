// Package ledger is the daemon's tamper-evident verdict log (ISSUE 9): an
// append-only record of every scored decision, batched into Merkle trees
// whose roots chain batch-to-batch, so that an auditor holding one root
// can later prove a verdict was present — and that no committed verdict
// was ever rewritten — without trusting the daemon's disk.
//
// # Structure
//
// Verdicts accumulate in memory and commit in batches of Options.BatchSize
// (plus an explicit Flush at checkpoint and shutdown). A committed batch is
// one file, batch-00000001.blk, batch-00000002.blk, ..., written in one
// durable.Commit (staged, fsynced, renamed, directory fsynced) and opened
// by the standard envelope. Inside a batch:
//
//	leaf_i  = SHA256(0x00 || canonical(entry_i))
//	node    = SHA256(0x01 || left || right)   (odd node promoted)
//	root    = fold of the leaves
//	chained = SHA256(0x02 || prev_chained || root)
//
// with the genesis prev_chained all zeros, where canonical is appendEntry's
// encoding. The chained head commits to every entry ever logged, in order:
// republishing GET /ledger/root after each checkpoint gives auditors a
// fork-detection point, and a per-entry inclusion proof (GET
// /ledger/proof/{seq}, verified offline by aovlisctl) is log(batch) hashes.
//
// # Batch file
//
// A batch file is the envelope (kind ledger.BinaryBatch, encoded once per
// process), the batch's fixed fields — index, first seq, entry count,
// prev_chained, root, chained — then each entry's canonical bytes, the very
// bytes its leaf hashes, and a SHA-256 trailer over everything before it
// (ARCHITECTURE.md §14 has the table). The committer encodes all of it into
// one reused buffer and writes it in one call. Files of kind ledger.Batch
// hold a gob payload instead: the ledger wrote those before binary batches,
// still reads them, and chains new batches onto them unchanged, because the
// hashes depend only on the entries.
//
// # What tampering is detected
//
// Every batch file stores its root and chained root. Verify recomputes
// both from the entries and re-derives the whole chain, so any single-byte
// mutation of a committed batch — an entry, a stored hash, the envelope —
// fails verification. What cannot be detected offline is a consistent
// rewrite of the entire suffix of the chain; that requires comparing
// against a previously published root (aovlisctl verify -expect-chained),
// which is exactly the root-republishing discipline above.
//
// # Crash semantics
//
// Entries not yet committed to a batch file are lost on a crash — and then
// re-scored and re-appended by the daemon's WAL replay, because checkpoint
// commit truncates the journal only after a ledger flush. A crash between
// batch commit and journal truncation therefore re-appends verdicts that
// are already in the ledger: the ledger is an event log with at-least-once
// semantics across crashes, not a deduplicated index (ARCHITECTURE.md §14).
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"aovlis/internal/durable"
	"aovlis/internal/snapshot"
	"aovlis/internal/wire"
)

// Entry is one scored verdict.
type Entry struct {
	// Seq is the entry's ledger sequence (1-based, assigned by Append).
	Seq uint64 `json:"seq"`
	// Channel is the scored channel; ChannelSeq the observation's sequence
	// on that channel, the number a journal records it under.
	Channel    string `json:"channel"`
	ChannelSeq uint64 `json:"channel_seq,omitempty"`
	// UnixNanos is the scoring time as reported by the caller.
	UnixNanos int64 `json:"unix_nanos"`
	// Anomaly, Score, Exact and Path mirror the detector verdict.
	Anomaly bool    `json:"anomaly"`
	Score   float64 `json:"score"`
	Exact   bool    `json:"exact"`
	Path    string  `json:"path"`
}

// MarshalJSON writes e as encoding/json writes its fields, except that a
// score JSON cannot carry — a hostile observation can score ±Inf or NaN —
// is a string: "+Inf", "-Inf", or "NaN:" and the 16 hex digits of its bits
// (the leaf hash reads the score's bits, so a proof must carry a NaN's
// payload too). That keeps the proof of any ledgered verdict servable.
func (e Entry) MarshalJSON() ([]byte, error) {
	var j wire.JSON
	e.writeJSON(&j)
	return j.B, j.Err()
}

func (e Entry) writeJSON(j *wire.JSON) {
	j.Object()
	j.Key("seq").Uint(e.Seq)
	j.Key("channel").String(e.Channel)
	if e.ChannelSeq != 0 {
		j.Key("channel_seq").Uint(e.ChannelSeq)
	}
	j.Key("unix_nanos").Int(e.UnixNanos)
	j.Key("anomaly").Bool(e.Anomaly)
	j.Key("exact").Bool(e.Exact)
	j.Key("path").String(e.Path)
	j.Key("score")
	switch f := e.Score; {
	case math.IsInf(f, 1):
		j.String("+Inf")
	case math.IsInf(f, -1):
		j.String("-Inf")
	case math.IsNaN(f):
		j.String(fmt.Sprintf("NaN:%016x", math.Float64bits(f)))
	default:
		j.Float(f)
	}
	j.EndObject()
}

var entryKeys = []string{"seq", "channel", "channel_seq", "unix_nanos", "anomaly", "exact", "path", "score"}

// UnmarshalJSON reads what MarshalJSON writes, accepting what encoding/json
// accepts for Entry's fields.
func (e *Entry) UnmarshalJSON(b []byte) error {
	var r wire.JSONReader
	if err := r.Reset(b); err != nil {
		return err
	}
	var score float64
	if r.Object() {
		for r.More() {
			switch r.Key(entryKeys...) {
			case 0:
				r.Uint(&e.Seq)
			case 1:
				r.String(&e.Channel)
			case 2:
				r.Uint(&e.ChannelSeq)
			case 3:
				wire.ReadInt(&r, &e.UnixNanos)
			case 4:
				r.Bool(&e.Anomaly)
			case 5:
				r.Bool(&e.Exact)
			case 6:
				r.String(&e.Path)
			case 7:
				if err := readScore(&r, &score); err != nil {
					return err
				}
			default:
				r.Skip()
			}
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	e.Score = score
	return nil
}

// readScore reads a score as MarshalJSON writes it: a number, or one of
// its three strings.
func readScore(r *wire.JSONReader, f *float64) error {
	if r.Next() != '"' {
		r.Float(f)
		return nil
	}
	var str string
	r.String(&str)
	switch {
	case str == "+Inf":
		*f = math.Inf(1)
	case str == "-Inf":
		*f = math.Inf(-1)
	case strings.HasPrefix(str, "NaN:") && len(str) == 4+16:
		bits, err := strconv.ParseUint(str[4:], 16, 64)
		if err != nil || !math.IsNaN(math.Float64frombits(bits)) {
			return fmt.Errorf("ledger: score %q is not a NaN's bits", str)
		}
		*f = math.Float64frombits(bits)
	default:
		return fmt.Errorf("ledger: score %q is not a number, +Inf, -Inf or NaN:<bits>", str)
	}
	return nil
}

// appendEntry appends e's canonical binary encoding — the bytes a leaf
// hashes and a batch file stores. Append refuses an entry whose channel or
// path is too long for the uint16 length.
func appendEntry(b []byte, e Entry) []byte {
	b = binary.LittleEndian.AppendUint64(b, e.Seq)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Channel)))
	b = append(b, e.Channel...)
	b = binary.LittleEndian.AppendUint64(b, e.ChannelSeq)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.UnixNanos))
	var flags byte
	if e.Anomaly {
		flags |= 1
	}
	if e.Exact {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Score))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Path)))
	b = append(b, e.Path...)
	return b
}

// entryFixedSize is an entry's encoding without its two strings: seq,
// channel length, channel seq, time, flags, score, path length.
const entryFixedSize = 8 + 2 + 8 + 8 + 1 + 8 + 2

func entrySize(e Entry) int { return entryFixedSize + len(e.Channel) + len(e.Path) }

// decodeEntry parses one canonical entry off the front of p and returns the
// rest. It accepts exactly what appendEntry writes, so an accepted entry
// re-encodes to the bytes it was read from.
func decodeEntry(p []byte) (Entry, []byte, error) {
	var e Entry
	if len(p) < 10 {
		return e, nil, errors.New("truncated entry")
	}
	e.Seq = binary.LittleEndian.Uint64(p)
	n := int(binary.LittleEndian.Uint16(p[8:]))
	p = p[10:]
	if len(p) < n+entryFixedSize-10 {
		return e, nil, errors.New("truncated entry")
	}
	e.Channel, p = string(p[:n]), p[n:]
	e.ChannelSeq = binary.LittleEndian.Uint64(p)
	e.UnixNanos = int64(binary.LittleEndian.Uint64(p[8:]))
	flags := p[16]
	if flags&^3 != 0 {
		return e, nil, fmt.Errorf("entry %d has unknown flag bits %#x", e.Seq, flags)
	}
	e.Anomaly, e.Exact = flags&1 != 0, flags&2 != 0
	e.Score = math.Float64frombits(binary.LittleEndian.Uint64(p[17:]))
	n = int(binary.LittleEndian.Uint16(p[25:]))
	p = p[27:]
	if len(p) < n {
		return e, nil, errors.New("truncated entry")
	}
	e.Path = string(p[:n])
	return e, p[n:], nil
}

// Domain-separation prefixes: leaves, interior nodes and the batch chain
// hash different spaces, so a leaf can never be reinterpreted as a node
// (the classic second-preimage trick against unprefixed Merkle trees).
const (
	prefixLeaf  = 0x00
	prefixNode  = 0x01
	prefixChain = 0x02
)

// LeafHash hashes one entry's canonical encoding into its leaf.
func LeafHash(e Entry) [32]byte {
	b := make([]byte, 1, 64)
	b[0] = prefixLeaf
	return sha256.Sum256(appendEntry(b, e))
}

var leafPrefix = [1]byte{prefixLeaf}

func nodeHash(left, right [32]byte) [32]byte {
	var b [65]byte
	b[0] = prefixNode
	copy(b[1:], left[:])
	copy(b[33:], right[:])
	return sha256.Sum256(b[:])
}

func chainHash(prev, root [32]byte) [32]byte {
	var b [65]byte
	b[0] = prefixChain
	copy(b[1:], prev[:])
	copy(b[33:], root[:])
	return sha256.Sum256(b[:])
}

// merkleRoot folds leaves level by level, in place — it overwrites leaves;
// an odd node is promoted unchanged (not duplicated — duplication lets two
// different leaf sets share a root).
func merkleRoot(leaves [][32]byte) [32]byte {
	if len(leaves) == 0 {
		return [32]byte{}
	}
	level := leaves
	for len(level) > 1 {
		next := level[:0]
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, nodeHash(level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// ProofStep is one sibling on the leaf-to-root path.
type ProofStep struct {
	// Hash is the sibling hash, hex; Left reports whether the sibling is
	// the left operand at this level.
	Hash string `json:"hash"`
	Left bool   `json:"left"`
}

// Proof is a self-contained inclusion proof for one entry: the entry, its
// sibling path, and the batch's root and chain links. VerifyProof checks
// it offline.
type Proof struct {
	Seq   uint64 `json:"seq"`
	Batch uint64 `json:"batch"`
	// Index is the entry's leaf index within the batch.
	Index int         `json:"index"`
	Entry Entry       `json:"entry"`
	Steps []ProofStep `json:"steps"`
	// Root is the batch's Merkle root; PrevChained/Chained the chain
	// link the batch committed under. All hex.
	Root        string `json:"root"`
	PrevChained string `json:"prev_chained"`
	Chained     string `json:"chained"`
}

// WriteJSON writes p as encoding/json writes it.
func (p Proof) WriteJSON(j *wire.JSON) {
	j.Object()
	j.Key("seq").Uint(p.Seq)
	j.Key("batch").Uint(p.Batch)
	j.Key("index").Int(int64(p.Index))
	p.Entry.writeJSON(j.Key("entry"))
	j.Key("steps")
	if p.Steps == nil {
		j.Null()
	} else {
		j.Array()
		for _, st := range p.Steps {
			j.Object().Key("hash").String(st.Hash)
			j.Key("left").Bool(st.Left).EndObject()
		}
		j.EndArray()
	}
	j.Key("root").String(p.Root)
	j.Key("prev_chained").String(p.PrevChained)
	j.Key("chained").String(p.Chained)
	j.EndObject()
}

// VerifyProof recomputes the leaf from p.Entry, folds the sibling path,
// and checks both the batch root and the chain link. A nil return means
// the entry is committed under p.Chained.
func VerifyProof(p Proof) error {
	if p.Entry.Seq != p.Seq {
		return fmt.Errorf("ledger: proof seq %d does not match entry seq %d", p.Seq, p.Entry.Seq)
	}
	h := LeafHash(p.Entry)
	for i, s := range p.Steps {
		sib, err := parseHash(s.Hash)
		if err != nil {
			return fmt.Errorf("ledger: proof step %d: %w", i, err)
		}
		if s.Left {
			h = nodeHash(sib, h)
		} else {
			h = nodeHash(h, sib)
		}
	}
	root, err := parseHash(p.Root)
	if err != nil {
		return fmt.Errorf("ledger: proof root: %w", err)
	}
	if h != root {
		return fmt.Errorf("ledger: proof does not reach the batch root")
	}
	prev, err := parseHash(p.PrevChained)
	if err != nil {
		return fmt.Errorf("ledger: proof prev_chained: %w", err)
	}
	chained, err := parseHash(p.Chained)
	if err != nil {
		return fmt.Errorf("ledger: proof chained: %w", err)
	}
	if chainHash(prev, root) != chained {
		return fmt.Errorf("ledger: chain link does not commit to the batch root")
	}
	return nil
}

func parseHash(s string) ([32]byte, error) {
	var h [32]byte
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, err
	}
	if len(b) != 32 {
		return h, fmt.Errorf("hash is %d bytes, want 32", len(b))
	}
	copy(h[:], b)
	return h, nil
}

// batchWire is a batch file's content after the envelope: what decodeBatch
// reads from a binary batch, and the gob payload of the older format.
type batchWire struct {
	Index       uint64
	FirstSeq    uint64
	PrevChained [32]byte
	Root        [32]byte
	Chained     [32]byte
	Entries     []Entry
}

// batchFieldsSize is a binary batch's fixed fields: index, first seq, entry
// count, prev chained, root, chained.
const batchFieldsSize = 8 + 8 + 4 + 3*32

// putBatchFields writes w's fixed fields into b[:batchFieldsSize].
func putBatchFields(b []byte, w *batchWire) {
	binary.LittleEndian.PutUint64(b, w.Index)
	binary.LittleEndian.PutUint64(b[8:], w.FirstSeq)
	binary.LittleEndian.PutUint32(b[16:], uint32(len(w.Entries)))
	copy(b[20:52], w.PrevChained[:])
	copy(b[52:84], w.Root[:])
	copy(b[84:116], w.Chained[:])
}

// appendBatch appends w's binary payload: its fixed fields, then each
// entry's canonical bytes.
func appendBatch(dst []byte, w *batchWire) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, batchFieldsSize)...)
	putBatchFields(dst[start:], w)
	for _, e := range w.Entries {
		dst = appendEntry(dst, e)
	}
	return dst
}

// decodeBatch parses a binary payload — the file's bytes between envelope
// and trailer. It accepts only what appendBatch writes, and it sizes the
// entry slice by what the payload can hold, never by the count it claims.
func decodeBatch(p []byte) (batchWire, error) {
	var w batchWire
	if len(p) < batchFieldsSize {
		return w, errors.New("truncated batch fields")
	}
	w.Index = binary.LittleEndian.Uint64(p)
	w.FirstSeq = binary.LittleEndian.Uint64(p[8:])
	count := binary.LittleEndian.Uint32(p[16:])
	copy(w.PrevChained[:], p[20:52])
	copy(w.Root[:], p[52:84])
	copy(w.Chained[:], p[84:116])
	p = p[batchFieldsSize:]
	if uint64(count) > uint64(len(p)/entryFixedSize) {
		return w, fmt.Errorf("entry count %d is more than %d bytes can hold", count, len(p))
	}
	w.Entries = make([]Entry, count)
	for i := range w.Entries {
		var err error
		if w.Entries[i], p, err = decodeEntry(p); err != nil {
			return w, fmt.Errorf("entry %d: %w", i, err)
		}
	}
	if len(p) != 0 {
		return w, fmt.Errorf("%d trailing bytes after the entries", len(p))
	}
	return w, nil
}

// binaryBatchHeader is the envelope every binary batch file opens with.
var binaryBatchHeader = func() []byte {
	var b bytes.Buffer
	if err := snapshot.WriteHeader(&b, snapshot.KindLedgerBinaryBatch); err != nil {
		panic(err) // a fixed header into memory: only a bug fails
	}
	return b.Bytes()
}()

// batchFiles names the ledger's batch files.
var batchFiles = durable.Numbered{Prefix: "batch-", Suffix: ".blk"}

// readBatch loads and structurally decodes one batch file of either
// format, dispatching on the envelope's kind. The trailing self-checksum is
// verified against the exact file bytes first: gob framing (type-descriptor
// names, terminators) tolerates some byte flips without changing the
// decode, so semantic verification alone cannot promise that *any*
// single-byte mutation is caught — the byte-level trailer can.
func readBatch(path string) (batchWire, error) {
	var w batchWire
	name := filepath.Base(path)
	b, err := os.ReadFile(path)
	if err != nil {
		return w, fmt.Errorf("ledger: %w", err)
	}
	if len(b) < sha256.Size {
		return w, fmt.Errorf("ledger: %s: truncated batch file", name)
	}
	body, trailer := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return w, fmt.Errorf("ledger: %s: file checksum mismatch (batch file bytes were altered)", name)
	}
	r := bytes.NewReader(body) // an io.ByteReader: gob reads exactly the header
	h, err := snapshot.ReadHeaderAny(r)
	if err != nil {
		return w, fmt.Errorf("ledger: %s: %w", name, err)
	}
	switch h.Kind {
	case snapshot.KindLedgerBinaryBatch:
		w, err = decodeBatch(body[len(body)-r.Len():])
	case snapshot.KindLedgerBatch:
		if err = gob.NewDecoder(r).Decode(&w); err == nil && r.Len() != 0 {
			// Nothing may trail the payload: appended bytes are a mutation too.
			err = fmt.Errorf("%d trailing bytes after batch payload", r.Len())
		}
	default:
		err = fmt.Errorf("kind %q is not a ledger batch", h.Kind)
	}
	if err != nil {
		return w, fmt.Errorf("ledger: %s: decoding batch: %w", name, err)
	}
	return w, nil
}

// verifyBatch recomputes w's Merkle root and chain link against prev and
// the values the file committed.
func verifyBatch(name string, w batchWire, wantIndex, wantFirstSeq uint64, prev [32]byte) error {
	if w.Index != wantIndex {
		return fmt.Errorf("ledger: %s: batch index %d, want %d", name, w.Index, wantIndex)
	}
	if w.FirstSeq != wantFirstSeq {
		return fmt.Errorf("ledger: %s: first seq %d, want %d (gap or overlap in the entry sequence)", name, w.FirstSeq, wantFirstSeq)
	}
	if len(w.Entries) == 0 {
		return fmt.Errorf("ledger: %s: empty batch", name)
	}
	if w.PrevChained != prev {
		return fmt.Errorf("ledger: %s: prev chained root does not match the preceding batch", name)
	}
	leaves := make([][32]byte, len(w.Entries))
	for i, e := range w.Entries {
		if e.Seq != wantFirstSeq+uint64(i) {
			return fmt.Errorf("ledger: %s: entry %d has seq %d, want %d", name, i, e.Seq, wantFirstSeq+uint64(i))
		}
		leaves[i] = LeafHash(e)
	}
	root := merkleRoot(leaves)
	if root != w.Root {
		return fmt.Errorf("ledger: %s: recomputed Merkle root does not match the committed root", name)
	}
	if chainHash(prev, root) != w.Chained {
		return fmt.Errorf("ledger: %s: recomputed chain link does not match the committed link", name)
	}
	return nil
}

// RootInfo summarises the committed head of a ledger.
type RootInfo struct {
	// Batches and Entries count the committed log; Pending counts
	// verdicts accumulated in memory but not yet flushed (always 0 from
	// offline Verify).
	Batches uint64 `json:"batches"`
	Entries uint64 `json:"entries"`
	Pending int    `json:"pending,omitempty"`
	// Root is the last batch's Merkle root and Chained the chained head —
	// the value an auditor records. Hex; for an empty ledger Chained is
	// the all-zero genesis value.
	Root    string `json:"root,omitempty"`
	Chained string `json:"chained"`
}

// WriteJSON writes ri as encoding/json writes it.
func (ri RootInfo) WriteJSON(j *wire.JSON) {
	j.Object()
	j.Key("batches").Uint(ri.Batches)
	j.Key("entries").Uint(ri.Entries)
	if ri.Pending != 0 {
		j.Key("pending").Int(int64(ri.Pending))
	}
	if ri.Root != "" {
		j.Key("root").String(ri.Root)
	}
	j.Key("chained").String(ri.Chained)
	j.EndObject()
}

// ErrNotCommitted is returned by Proof for sequences not yet inside a
// committed batch (pending or future).
var ErrNotCommitted = errors.New("ledger: entry is not in a committed batch")

// batchMeta indexes one committed batch in memory.
type batchMeta struct {
	index    uint64
	firstSeq uint64
	count    int
	root     [32]byte
	prev     [32]byte
	chained  [32]byte
}

// Options parameterises a Ledger.
type Options struct {
	// BatchSize is the number of entries per committed batch; 0 means the
	// default of 64. Flush commits a short batch regardless.
	BatchSize int
	// OnCommit, when set, is called after every batch commit with the
	// number of entries committed — the daemon points it at its ledger
	// counters.
	OnCommit func(entries int)
}

// DefaultBatchSize is the per-batch entry count when Options leaves it 0.
const DefaultBatchSize = 64

// Ledger is an append-only Merkle-batched verdict log over one directory.
// All methods are safe for concurrent use.
type Ledger struct {
	dir       string
	batchSize int
	onCommit  func(int)

	mu      sync.Mutex
	batches []batchMeta
	prev    [32]byte // chained head
	nextSeq uint64   // next entry sequence (1-based)
	pending []Entry  // reused from batch to batch
	closed  bool

	// Commit scratch, reused: the batch file's bytes, its leaves (folded
	// into the root in place) and the leaf hasher.
	buf    []byte
	leaves [][32]byte
	leafH  hash.Hash
}

// Open opens (creating if necessary) the ledger in dir, fully verifying
// the existing chain: every batch is re-hashed and re-linked, so a daemon
// never appends to a log it cannot vouch for.
func Open(dir string, opts Options) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: open: %w", err)
	}
	l := &Ledger{dir: dir, batchSize: opts.BatchSize, onCommit: opts.OnCommit, nextSeq: 1, leafH: sha256.New()}
	if l.batchSize <= 0 {
		l.batchSize = DefaultBatchSize
	}
	metas, prev, nextSeq, err := loadDir(dir)
	if err != nil {
		return nil, err
	}
	l.batches, l.prev, l.nextSeq = metas, prev, nextSeq
	return l, nil
}

// loadDir scans and verifies dir's batch chain.
func loadDir(dir string) ([]batchMeta, [32]byte, uint64, error) {
	var prev [32]byte
	indices, err := batchFiles.List(dir)
	if err != nil {
		return nil, prev, 1, fmt.Errorf("ledger: %w", err)
	}
	var (
		metas   []batchMeta
		nextSeq = uint64(1)
	)
	for i, n := range indices {
		if n != uint64(i+1) {
			return nil, prev, 1, fmt.Errorf("ledger: batch %d missing (found %s out of order)", i+1, batchFiles.Name(n))
		}
		w, err := readBatch(filepath.Join(dir, batchFiles.Name(n)))
		if err != nil {
			return nil, prev, 1, err
		}
		if err := verifyBatch(batchFiles.Name(n), w, n, nextSeq, prev); err != nil {
			return nil, prev, 1, err
		}
		metas = append(metas, batchMeta{
			index: n, firstSeq: w.FirstSeq, count: len(w.Entries),
			root: w.Root, prev: w.PrevChained, chained: w.Chained,
		})
		prev = w.Chained
		nextSeq = w.FirstSeq + uint64(len(w.Entries))
	}
	return metas, prev, nextSeq, nil
}

// Verify fully re-verifies the ledger in dir offline — every batch
// re-hashed, every chain link re-derived — and returns the committed
// head. It never writes.
func Verify(dir string) (RootInfo, error) {
	metas, prev, nextSeq, err := loadDir(dir)
	if err != nil {
		return RootInfo{}, err
	}
	info := RootInfo{Batches: uint64(len(metas)), Entries: nextSeq - 1, Chained: hex.EncodeToString(prev[:])}
	if n := len(metas); n > 0 {
		info.Root = hex.EncodeToString(metas[n-1].root[:])
	}
	return info, nil
}

// Append assigns the next ledger sequence to e, buffers it, and commits a
// batch when BatchSize entries have accumulated. It returns the assigned
// sequence. The commit (when one happens) is synchronous: an error means
// the batch did not commit and the entries remain pending.
func (l *Ledger) Append(e Entry) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("ledger: closed")
	}
	if len(e.Channel) > math.MaxUint16 || len(e.Path) > math.MaxUint16 {
		return 0, fmt.Errorf("ledger: entry channel or path longer than %d bytes", math.MaxUint16)
	}
	e.Seq = l.nextSeq
	l.nextSeq++
	l.pending = append(l.pending, e)
	if len(l.pending) >= l.batchSize {
		if err := l.commitLocked(); err != nil {
			return e.Seq, err
		}
	}
	return e.Seq, nil
}

// Flush commits any pending entries as a (possibly short) batch. The
// daemon calls it at every checkpoint — before WAL truncation — and at
// shutdown.
func (l *Ledger) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		return nil
	}
	return l.commitLocked()
}

// commitLocked writes l.pending as the next batch. Called with l.mu held.
// The file is encoded whole into l.buf, and each leaf hashes its entry's
// bytes where they lie in it, so the file stores exactly what the root
// commits to.
func (l *Ledger) commitLocked() error {
	entries := l.pending
	w := batchWire{Index: uint64(len(l.batches)) + 1, FirstSeq: entries[0].Seq, PrevChained: l.prev, Entries: entries}
	b := append(l.buf[:0], binaryBatchHeader...)
	fields := len(b)
	b = appendBatch(b, &w)
	if cap(l.leaves) < len(entries) {
		l.leaves = make([][32]byte, len(entries))
	}
	leaves := l.leaves[:len(entries)]
	off := fields + batchFieldsSize
	for i, e := range entries {
		n := entrySize(e)
		l.leafH.Reset()
		l.leafH.Write(leafPrefix[:])
		l.leafH.Write(b[off : off+n])
		l.leafH.Sum(leaves[i][:0])
		off += n
	}
	w.Root = merkleRoot(leaves)
	w.Chained = chainHash(l.prev, w.Root)
	putBatchFields(b[fields:], &w)
	sum := sha256.Sum256(b)
	l.buf = append(b, sum[:]...)
	if err := durable.Commit(filepath.Join(l.dir, batchFiles.Name(w.Index)), l.buf); err != nil {
		return err
	}
	l.batches = append(l.batches, batchMeta{
		index: w.Index, firstSeq: w.FirstSeq, count: len(entries),
		root: w.Root, prev: l.prev, chained: w.Chained,
	})
	l.prev = w.Chained
	l.pending = l.pending[:0]
	if l.onCommit != nil {
		l.onCommit(len(entries))
	}
	return nil
}

// Root reports the committed head plus the live pending count.
func (l *Ledger) Root() RootInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	info := RootInfo{Batches: uint64(len(l.batches)), Entries: l.nextSeq - 1 - uint64(len(l.pending)),
		Pending: len(l.pending), Chained: hex.EncodeToString(l.prev[:])}
	if n := len(l.batches); n > 0 {
		info.Root = hex.EncodeToString(l.batches[n-1].root[:])
	}
	return info
}

// Proof builds the inclusion proof for ledger sequence seq. Only
// committed entries have proofs; pending ones return ErrNotCommitted.
func (l *Ledger) Proof(seq uint64) (Proof, error) {
	l.mu.Lock()
	var meta batchMeta
	found := false
	// batches are sorted by firstSeq; find the one containing seq.
	i := sort.Search(len(l.batches), func(i int) bool {
		return l.batches[i].firstSeq+uint64(l.batches[i].count) > seq
	})
	if i < len(l.batches) && seq >= l.batches[i].firstSeq {
		meta = l.batches[i]
		found = true
	}
	dir := l.dir
	l.mu.Unlock()
	if !found {
		return Proof{}, fmt.Errorf("%w: seq %d", ErrNotCommitted, seq)
	}
	w, err := readBatch(filepath.Join(dir, batchFiles.Name(meta.index)))
	if err != nil {
		return Proof{}, err
	}
	if err := verifyBatch(batchFiles.Name(meta.index), w, meta.index, meta.firstSeq, meta.prev); err != nil {
		return Proof{}, err
	}
	idx := int(seq - meta.firstSeq)
	leaves := make([][32]byte, len(w.Entries))
	for i, e := range w.Entries {
		leaves[i] = LeafHash(e)
	}
	p := Proof{
		Seq: seq, Batch: meta.index, Index: idx, Entry: w.Entries[idx],
		Root:        hex.EncodeToString(meta.root[:]),
		PrevChained: hex.EncodeToString(meta.prev[:]),
		Chained:     hex.EncodeToString(meta.chained[:]),
	}
	// Walk the tree bottom-up, recording the sibling at each level. An
	// odd node promotes with no sibling — no step for that level.
	level := leaves
	pos := idx
	for len(level) > 1 {
		sib := pos ^ 1
		if sib < len(level) {
			p.Steps = append(p.Steps, ProofStep{
				Hash: hex.EncodeToString(level[sib][:]),
				Left: sib < pos,
			})
		}
		next := make([][32]byte, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, nodeHash(level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		pos /= 2
	}
	return p, nil
}

// Close flushes pending entries and marks the ledger closed.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if len(l.pending) == 0 {
		return nil
	}
	return l.commitLocked()
}
