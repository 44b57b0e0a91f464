package ledger

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// testEntry builds a deterministic verdict for channel ch.
func testEntry(ch string, cseq uint64) Entry {
	return Entry{
		Channel:    ch,
		ChannelSeq: cseq,
		UnixNanos:  int64(1700000000000000000 + cseq),
		Anomaly:    cseq%3 == 0,
		Score:      float64(cseq) * 0.125,
		Exact:      cseq%2 == 0,
		Path:       "exact",
	}
}

// fill appends n deterministic entries.
func fill(t *testing.T, l *Ledger, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(testEntry(fmt.Sprintf("ch-%d", i%3), uint64(i+1))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func TestAppendFlushVerifyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var commits, committed int
	l.onCommit = func(n int) { commits++; committed += n }
	fill(t, l, 20) // 2 full batches + 4 pending
	if got := l.Root(); got.Batches != 2 || got.Entries != 16 || got.Pending != 4 {
		t.Fatalf("Root before flush = %+v", got)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	live := l.Root()
	if live.Batches != 3 || live.Entries != 20 || live.Pending != 0 {
		t.Fatalf("Root after flush = %+v", live)
	}
	if commits != 3 || committed != 20 {
		t.Fatalf("OnCommit saw %d commits / %d entries", commits, committed)
	}

	// Offline verification re-derives the same head.
	info, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if info.Chained != live.Chained || info.Root != live.Root || info.Entries != 20 || info.Batches != 3 {
		t.Fatalf("Verify = %+v, live = %+v", info, live)
	}

	// Reopen verifies the chain and resumes the sequence.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.Root(); got.Chained != live.Chained || got.Entries != 20 {
		t.Fatalf("reopened Root = %+v", got)
	}
	seq, err := l2.Append(testEntry("ch-x", 99))
	if err != nil || seq != 21 {
		t.Fatalf("Append after reopen = %d, %v; want 21", seq, err)
	}
	if err := l2.Close(); err != nil { // Close flushes the pending entry
		t.Fatal(err)
	}
	if info, err := Verify(dir); err != nil || info.Entries != 21 || info.Batches != 4 {
		t.Fatalf("Verify after close = %+v, %v", info, err)
	}
}

func TestProofEveryCommittedEntry(t *testing.T) {
	dir := t.TempDir()
	// Batch size 7 exercises odd-promotion at several levels.
	l, err := Open(dir, Options{BatchSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fill(t, l, 23)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	head := l.Root()
	for seq := uint64(1); seq <= 23; seq++ {
		p, err := l.Proof(seq)
		if err != nil {
			t.Fatalf("Proof(%d): %v", seq, err)
		}
		if err := VerifyProof(p); err != nil {
			t.Fatalf("VerifyProof(%d): %v", seq, err)
		}
		if p.Entry.Seq != seq {
			t.Fatalf("Proof(%d) carries entry %d", seq, p.Entry.Seq)
		}
		// A proof must break when its entry is altered...
		bad := p
		bad.Entry.Score += 1e-9
		if err := VerifyProof(bad); err == nil {
			t.Fatalf("Proof(%d) verified with a mutated score", seq)
		}
		// ...or when any sibling on the path is.
		if len(p.Steps) > 0 {
			bad = p
			bad.Steps = append([]ProofStep(nil), p.Steps...)
			s := bad.Steps[0]
			s.Hash = strings.Repeat("0", 64)
			bad.Steps[0] = s
			if err := VerifyProof(bad); err == nil {
				t.Fatalf("Proof(%d) verified with a mutated sibling", seq)
			}
		}
	}
	// The last batch's proof chains to the published head.
	p, err := l.Proof(23)
	if err != nil {
		t.Fatal(err)
	}
	if p.Chained != head.Chained {
		t.Fatalf("Proof(23) chained %s, head %s", p.Chained, head.Chained)
	}

	// Sequences outside the committed range have no proof.
	if _, err := l.Proof(0); !errors.Is(err, ErrNotCommitted) {
		t.Fatalf("Proof(0) = %v", err)
	}
	if _, err := l.Proof(24); !errors.Is(err, ErrNotCommitted) {
		t.Fatalf("Proof(24) = %v", err)
	}
}

// TestSingleByteMutationDetected is the acceptance criterion pinned as a
// test: every single-byte mutation of every committed batch file must
// fail offline verification.
func TestSingleByteMutationDetected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{BatchSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("pristine ledger failed verification: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "batch-*.blk"))
	if err != nil || len(files) != 2 {
		t.Fatalf("batch files: %v, %v", files, err)
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := range b {
			b[off] ^= 0xff
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Verify(dir); err == nil {
				t.Fatalf("flipping byte %d of %s went undetected", off, filepath.Base(path))
			}
			b[off] ^= 0xff
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("restored ledger failed verification: %v", err)
	}
}

func TestOpenRejectsBrokenChain(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 12)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A gap in the batch sequence (a deleted batch) must refuse to open.
	if err := os.Remove(filepath.Join(dir, batchName(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a ledger with a deleted batch")
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("Verify accepted a ledger with a deleted batch")
	}
}

func TestProofJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fill(t, l, 4)
	p, err := l.Proof(3)
	if err != nil {
		t.Fatal(err)
	}
	// The proof survives the HTTP hop: marshal, unmarshal, verify.
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Proof
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := VerifyProof(back); err != nil {
		t.Fatalf("proof broken by JSON round trip: %v", err)
	}
}

// TestEntryJSONScores pins an entry's JSON score: a finite score is the
// number encoding/json writes for it, and every score — ±Inf and NaNs with
// any payload included, which a hostile observation can produce — comes
// back with its bits, so the proof of its entry still verifies.
func TestEntryJSONScores(t *testing.T) {
	scores := []float64{0.125, 1e-7, 4.4e300, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000000)}
	dir := t.TempDir()
	l, err := Open(dir, Options{BatchSize: len(scores)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, s := range scores {
		e := testEntry("ch", uint64(i+1))
		e.Score = s
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range scores {
		p, err := l.Proof(uint64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("score %v: %v", s, err)
		}
		var fields struct {
			Entry struct {
				Score json.RawMessage `json:"score"`
			} `json:"entry"`
		}
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		if want, err := json.Marshal(s); err == nil && !bytes.Equal(fields.Entry.Score, want) {
			t.Fatalf("finite score %v encodes as %s, encoding/json writes %s", s, fields.Entry.Score, want)
		}
		var back Proof
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("score %s: %v", fields.Entry.Score, err)
		}
		got, want := back.Entry, p.Entry
		got.Score, want.Score = 0, 0
		if got != want || math.Float64bits(back.Entry.Score) != math.Float64bits(s) {
			t.Fatalf("entry with score %s came back as %+v (score bits %x), want score bits %x",
				fields.Entry.Score, back.Entry, math.Float64bits(back.Entry.Score), math.Float64bits(s))
		}
		if err := VerifyProof(back); err != nil {
			t.Fatalf("score %s: proof broken by its JSON round trip: %v", fields.Entry.Score, err)
		}
	}
	for _, bad := range []string{`"Inf"`, `"NaN"`, `"NaN:3ff0000000000000"`, `"NaN:zz"`, `"1.5"`} {
		var e Entry
		if err := json.Unmarshal([]byte(`{"score":`+bad+`}`), &e); err == nil {
			t.Fatalf("score %s accepted as %v", bad, e.Score)
		}
	}
}

// TestLedgerAppendSteadyStateAllocs pins what the verdict ledger costs once
// warm: its appends allocate nothing, and a batch commit at most 20 times
// and 2 KiB — the batch file's create, rename and syncs, and the growth of
// the batch index — however many entries the batch holds.
func TestLedgerAppendSteadyStateAllocs(t *testing.T) {
	for _, size := range []int{64, 256} {
		t.Run(fmt.Sprintf("batch=%d", size), func(t *testing.T) {
			l, err := Open(t.TempDir(), Options{BatchSize: size})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			const warm, commits = 16, 16
			e := testEntry("ch-0", 1)
			appendN := func(n int) {
				for i := 0; i < n; i++ {
					if _, err := l.Append(e); err != nil {
						t.Fatal(err)
					}
				}
			}
			appendN(warm * size)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			appendN(commits * size)
			runtime.ReadMemStats(&after)
			if got := l.Root().Batches; got != warm+commits {
				t.Fatalf("%d batches committed, want %d", got, warm+commits)
			}
			allocs := float64(after.Mallocs-before.Mallocs) / commits
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / commits
			t.Logf("batch %d: %.1f allocations, %.0f B per commit", size, allocs, bytes)
			if allocs > 20 || bytes > 2048 {
				t.Fatalf("a commit of %d entries allocates %.1f times and %.0f B, want at most 20 and 2 KiB", size, allocs, bytes)
			}
		})
	}
}
