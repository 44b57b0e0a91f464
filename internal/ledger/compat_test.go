package ledger

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aovlis/internal/snapshot"
)

// goldenGobDir holds a ledger written by this package's gob-format writer,
// the format before binary batches: goldenEntries appended with
// Options{BatchSize: 5} and closed, so batches of 5, 5 and a 3-entry tail.
// proofs.json holds, per entry, the leaf and the proof's hashes that
// writer's Proof returned. goldenGobHead is its chained head.
const (
	goldenGobDir  = "testdata/golden-gob"
	goldenGobHead = "604a40456daca8f8be758f09a86ffc9c3d44b4fb217ca89afe89d18012dc9cb0"
)

// goldenEntries are the entries of the gob golden, in order: testEntry's
// pattern with a path, a +Inf score, a longer non-ASCII channel with no
// channel seq, and a subnormal score at a negative time mixed in.
func goldenEntries() []Entry {
	var es []Entry
	for i := 0; i < 13; i++ {
		e := testEntry(fmt.Sprintf("ch-%d", i%3), uint64(i+1))
		switch i {
		case 3:
			e.Path = "tier-skip"
		case 5:
			e.Score, e.Anomaly = math.Inf(1), true
		case 8:
			e.Channel, e.ChannelSeq = "a-channel/with.a-longer_name-ü", 0
		case 11:
			e.Score, e.UnixNanos = 5e-324, -1
		}
		es = append(es, e)
	}
	return es
}

// goldenProof is one line of proofs.json.
type goldenProof struct {
	Seq, Batch                 uint64
	Index                      int
	Leaf                       string
	Steps                      []ProofStep
	Root, PrevChained, Chained string
}

func readGoldenProofs(t *testing.T) []goldenProof {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(goldenGobDir, "proofs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ps []goldenProof
	if err := json.Unmarshal(raw, &ps); err != nil {
		t.Fatal(err)
	}
	return ps
}

// checkProofs requires every entry's proof from l to be the golden's, hash
// for hash, and to verify.
func checkProofs(t *testing.T, l *Ledger, want []goldenProof) {
	t.Helper()
	entries := goldenEntries()
	for i, g := range want {
		p, err := l.Proof(g.Seq)
		if err != nil {
			t.Fatalf("Proof(%d): %v", g.Seq, err)
		}
		if err := VerifyProof(p); err != nil {
			t.Fatalf("VerifyProof(%d): %v", g.Seq, err)
		}
		e := entries[i]
		e.Seq = g.Seq
		if !bytes.Equal(appendEntry(nil, p.Entry), appendEntry(nil, e)) {
			t.Fatalf("Proof(%d) carries entry %+v, want %+v", g.Seq, p.Entry, e)
		}
		leaf := LeafHash(p.Entry)
		got := goldenProof{p.Seq, p.Batch, p.Index, hex.EncodeToString(leaf[:]), p.Steps, p.Root, p.PrevChained, p.Chained}
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("Proof(%d) = %+v, golden %+v", g.Seq, got, g)
		}
	}
}

// batchKind reads the envelope kind of a committed batch file.
func batchKind(t *testing.T, dir string, index uint64) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, batchFiles.Name(index)))
	if err != nil {
		t.Fatal(err)
	}
	h, err := snapshot.ReadHeaderAny(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return h.Kind
}

// TestGobGoldenCompat pins the ledger across its file format: a gob-format
// ledger still opens, verifies and proves to its pinned head; the same
// entries written now produce the same roots, head and proofs, hash for
// hash, in binary batches; and a ledger opened on the gob files chains
// binary batches onto them that Verify accepts.
func TestGobGoldenCompat(t *testing.T) {
	golden := readGoldenProofs(t)
	if len(golden) != len(goldenEntries()) {
		t.Fatalf("proofs.json holds %d proofs for %d entries", len(golden), len(goldenEntries()))
	}

	t.Run("gob files", func(t *testing.T) {
		info, err := Verify(goldenGobDir)
		if err != nil {
			t.Fatal(err)
		}
		if info.Chained != goldenGobHead || info.Batches != 3 || info.Entries != 13 {
			t.Fatalf("Verify = %+v, want 3 batches, 13 entries, head %s", info, goldenGobHead)
		}
		for i := uint64(1); i <= 3; i++ {
			if k := batchKind(t, goldenGobDir, i); k != snapshot.KindLedgerBatch {
				t.Fatalf("golden batch %d has kind %q", i, k)
			}
		}
		l, err := Open(goldenGobDir, Options{BatchSize: 5}) // reads only: nothing is pending
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		checkProofs(t, l, golden)
	})

	t.Run("same entries written now", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir, Options{BatchSize: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range goldenEntries() {
			if _, err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if head := l.Root(); head.Chained != goldenGobHead {
			t.Fatalf("head %s, golden %s", head.Chained, goldenGobHead)
		}
		for i := uint64(1); i <= 3; i++ {
			if k := batchKind(t, dir, i); k != snapshot.KindLedgerBinaryBatch {
				t.Fatalf("batch %d has kind %q, want %q", i, k, snapshot.KindLedgerBinaryBatch)
			}
		}
		checkProofs(t, l, golden)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if info, err := Verify(dir); err != nil || info.Chained != goldenGobHead {
			t.Fatalf("Verify = %+v, %v", info, err)
		}
	})

	t.Run("binary batches chained onto gob", func(t *testing.T) {
		dir := t.TempDir()
		for i := uint64(1); i <= 3; i++ {
			b, err := os.ReadFile(filepath.Join(goldenGobDir, batchFiles.Name(i)))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, batchFiles.Name(i)), b, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		l, err := Open(dir, Options{BatchSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if seq, err := l.Append(testEntry("ch-new", uint64(100+i))); err != nil || seq != uint64(14+i) {
				t.Fatalf("Append after the golden = %d, %v; want seq %d", seq, err, 14+i)
			}
		}
		if err := l.Close(); err != nil { // one full batch and a 2-entry tail
			t.Fatal(err)
		}
		w, err := readBatch(filepath.Join(dir, batchFiles.Name(4)))
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(w.PrevChained[:]) != goldenGobHead || w.FirstSeq != 14 {
			t.Fatalf("batch 4 chains from %x at seq %d, want the golden head at 14", w.PrevChained, w.FirstSeq)
		}
		for i, want := range []string{snapshot.KindLedgerBatch, snapshot.KindLedgerBatch, snapshot.KindLedgerBatch,
			snapshot.KindLedgerBinaryBatch, snapshot.KindLedgerBinaryBatch} {
			if k := batchKind(t, dir, uint64(i+1)); k != want {
				t.Fatalf("batch %d has kind %q, want %q", i+1, k, want)
			}
		}
		info, err := Verify(dir)
		if err != nil || info.Batches != 5 || info.Entries != 19 {
			t.Fatalf("Verify over the mixed directory = %+v, %v", info, err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		for _, seq := range []uint64{1, 13, 14, 19} {
			p, err := l2.Proof(seq)
			if err != nil {
				t.Fatalf("Proof(%d): %v", seq, err)
			}
			if err := VerifyProof(p); err != nil {
				t.Fatalf("VerifyProof(%d) across formats: %v", seq, err)
			}
		}
	})
}

// TestScoreBitsSurviveCommit: a batch stores each entry's canonical bytes,
// so every score bit pattern — negative zero and a NaN payload included —
// reads back as it was hashed and verifies. Gob dropped a -0 score as a
// zero value, and the batch holding it no longer matched its root.
func TestScoreBitsSurviveCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	scores := []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(-1), 1}
	for i, s := range scores {
		e := testEntry("ch", uint64(i+1))
		e.Score = s
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	w, err := readBatch(filepath.Join(dir, batchFiles.Name(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range w.Entries {
		if math.Float64bits(e.Score) != math.Float64bits(scores[i]) {
			t.Fatalf("entry %d reads score bits %#x, appended %#x", i, math.Float64bits(e.Score), math.Float64bits(scores[i]))
		}
	}
}

// TestAppendRefusesUnencodableEntry: a channel or path past the uint16
// length has no canonical encoding, so Append refuses it and assigns it no
// seq.
func TestAppendRefusesUnencodableEntry(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	long := string(make([]byte, math.MaxUint16+1))
	if _, err := l.Append(Entry{Channel: long}); err == nil {
		t.Fatal("Append took a channel longer than the encoding can carry")
	}
	if _, err := l.Append(Entry{Channel: "ch", Path: long}); err == nil {
		t.Fatal("Append took a path longer than the encoding can carry")
	}
	if seq, err := l.Append(testEntry("ch", 1)); err != nil || seq != 1 {
		t.Fatalf("Append after the refusals = %d, %v; want seq 1", seq, err)
	}
}

// TestBinaryBatchHeaderIsGob pins the batch envelope literal: it is gob's
// encoding of the version 3 envelope a binary batch has always opened
// with, and a batch written now opens with it and reads back through
// readBatch while the snapshot codec version is past 3.
func TestBinaryBatchHeaderIsGob(t *testing.T) {
	var want bytes.Buffer
	h := snapshot.Header{Magic: snapshot.Magic, Version: 3, Kind: snapshot.KindLedgerBinaryBatch}
	if err := gob.NewEncoder(&want).Encode(h); err != nil {
		t.Fatal(err)
	}
	if binaryBatchHeader != want.String() {
		t.Fatalf("binaryBatchHeader is %q, gob encodes %q", binaryBatchHeader, want.String())
	}
	if snapshot.Version <= 3 {
		t.Fatalf("snapshot.Version is %d: this pins a header written under a later one", snapshot.Version)
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Append(testEntry("ch", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, batchFiles.Name(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte(binaryBatchHeader)) {
		t.Fatal("a batch written now does not open with binaryBatchHeader")
	}
	if w, err := readBatch(filepath.Join(dir, batchFiles.Name(1))); err != nil || len(w.Entries) != 2 {
		t.Fatalf("readBatch = %d entries, %v; want 2", len(w.Entries), err)
	}
}
