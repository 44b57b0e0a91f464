package ledger

// Native fuzz targets for the ledger's two untrusted inputs. VerifyProof
// consumes attacker-controlled JSON (a proof fetched from an untrusted
// daemon, or a tampered file fed to aovlisctl), so arbitrary input must
// produce clean errors — never a panic. decodeBatch reads a batch file's
// payload past its checksum, so a file whose trailer was recomputed over
// forged bytes reaches it: it must not panic, must size what it allocates
// by the bytes it was given, and must accept only canonical payloads. Seed
// corpus lives under testdata/fuzz/ (plus the f.Add seeds below); CI runs
// a fixed-budget smoke on every push.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"aovlis/internal/wire"
)

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false, "regenerate the testdata/fuzz seed corpus files")

// proofFuzzSeeds builds deterministic valid and near-valid proof JSON.
// The ledger entries are fixed, so the minted corpus is stable across
// runs.
func proofFuzzSeeds(tb testing.TB) [][]byte {
	dir := tb.TempDir()
	l, err := Open(dir, Options{BatchSize: 5})
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 12; i++ {
		if _, err := l.Append(testEntryTB(tb, uint64(i+1))); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	for _, seq := range []uint64{1, 5, 7, 12} {
		p, err := l.Proof(seq)
		if err != nil {
			tb.Fatal(err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	seeds = append(seeds,
		[]byte(`{}`),
		[]byte(`{"seq":1,"entry":{"seq":1},"root":"zz","prev_chained":"","chained":""}`),
		[]byte(`{"seq":1,"entry":{"seq":1},"steps":[{"hash":"00","left":true}],"root":"00","prev_chained":"00","chained":"00"}`),
		[]byte(`not json`),
	)
	return seeds
}

// testEntryTB mirrors ledger_test.go's testEntry for testing.TB callers.
func testEntryTB(tb testing.TB, cseq uint64) Entry {
	tb.Helper()
	return Entry{
		Channel:    fmt.Sprintf("ch-%d", cseq%3),
		ChannelSeq: cseq,
		UnixNanos:  int64(1700000000000000000 + cseq),
		Anomaly:    cseq%3 == 0,
		Score:      float64(cseq) * 0.125,
		Exact:      cseq%2 == 0,
		Path:       "exact",
	}
}

// TestMintFuzzCorpus regenerates the checked-in seed corpus. Run with
//
//	go test ./internal/ledger -run TestMintFuzzCorpus -update-fuzz-corpus
func TestMintFuzzCorpus(t *testing.T) {
	if !*updateFuzzCorpus {
		t.Skip("pass -update-fuzz-corpus to regenerate the seed corpus")
	}
	for target, seeds := range map[string][][]byte{
		"FuzzLedgerProof": proofFuzzSeeds(t),
		"FuzzReadBatch":   batchFuzzSeeds(),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func FuzzLedgerProof(f *testing.F) {
	for _, seed := range proofFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound allocation, not coverage
		}
		var p Proof
		var o oracleProof
		err, oerr := json.Unmarshal(data, &p), json.Unmarshal(data, &o)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("%q: err %v, encoding/json oracle %v", data, err, oerr)
		}
		if err != nil {
			return
		}
		if !sameProof(p, o) {
			t.Fatalf("%q: read %+v, encoding/json oracle %+v", data, p, o)
		}
		got, err := p.Entry.MarshalJSON()
		want, werr := oracleEntry(p.Entry).MarshalJSON()
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("entry %+v: %s (%v), encoding/json oracle %s (%v)", p.Entry, got, err, want, werr)
		}
		if len(p.Steps) > 1<<12 {
			return // a real proof is log(batch) steps; bound the fold
		}
		// Must never panic; the error split (accept/reject) is what the
		// unit tests pin.
		_ = VerifyProof(p)
	})
}

// batchFuzzSeeds are binary batch payloads: valid ones and one of each way
// to break the layout.
func batchFuzzSeeds() [][]byte {
	var entries []Entry
	for i := uint64(1); i <= 3; i++ {
		e := testEntry(fmt.Sprintf("ch-%d", i), i)
		e.Seq = i
		entries = append(entries, e)
	}
	w := batchWire{Index: 1, FirstSeq: 1, Root: [32]byte{1}, Chained: [32]byte{2}, Entries: entries}
	valid := appendBatch(nil, &w)
	oneEntry := appendBatch(nil, &batchWire{Index: 9, FirstSeq: 40, Entries: entries[:1]})
	lying := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(lying[16:], 1<<31) // a count no payload can hold
	badFlags := append([]byte(nil), oneEntry...)
	badFlags[batchFieldsSize+10+len(entries[0].Channel)+16] |= 0x80
	return [][]byte{
		valid,
		oneEntry,
		appendBatch(nil, &batchWire{}), // no entries
		valid[:len(valid)-1],           // torn last entry
		append(append([]byte(nil), valid...), 0),
		lying,
		badFlags,
		valid[:batchFieldsSize-1],
	}
}

func FuzzReadBatch(f *testing.F) {
	for _, seed := range batchFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) > 1<<20 {
			return // bound the input, not coverage
		}
		w, err := decodeBatch(p)
		if err != nil {
			return
		}
		if room := (len(p) - batchFieldsSize) / entryFixedSize; cap(w.Entries) > room {
			t.Fatalf("%d bytes decoded into room for %d entries, more than the %d they can hold", len(p), cap(w.Entries), room)
		}
		if re := appendBatch(nil, &w); !bytes.Equal(re, p) {
			t.Fatalf("accepted payload re-encodes differently:\nread  %x\nwrote %x", p, re)
		}
	})
}

// oracleEntry is Entry with the JSON methods it had when encoding/json
// wrote and read it: the fields through a method-less copy of the type,
// the score through oracleScore. FuzzLedgerProof holds Entry's hand-written
// methods to it.
type oracleEntry Entry

// oracleFields is Entry without JSON methods.
type oracleFields Entry

func (e oracleEntry) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		oracleFields
		Score oracleScore `json:"score"`
	}{oracleFields(e), oracleScore(e.Score)})
}

func (e *oracleEntry) UnmarshalJSON(b []byte) error {
	w := struct {
		*oracleFields
		Score oracleScore `json:"score"`
	}{oracleFields: (*oracleFields)(e)}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	e.Score = float64(w.Score)
	return nil
}

type oracleScore float64

func (s oracleScore) MarshalJSON() ([]byte, error) {
	f := float64(s)
	switch {
	case math.IsInf(f, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(f):
		return fmt.Appendf(nil, `"NaN:%016x"`, math.Float64bits(f)), nil
	}
	return json.Marshal(f)
}

func (s *oracleScore) UnmarshalJSON(b []byte) error {
	if len(b) == 0 || b[0] != '"' {
		return json.Unmarshal(b, (*float64)(s))
	}
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	switch {
	case str == "+Inf":
		*s = oracleScore(math.Inf(1))
	case str == "-Inf":
		*s = oracleScore(math.Inf(-1))
	case strings.HasPrefix(str, "NaN:") && len(str) == 4+16:
		bits, err := strconv.ParseUint(str[4:], 16, 64)
		if err != nil || !math.IsNaN(math.Float64frombits(bits)) {
			return fmt.Errorf("ledger: score %q is not a NaN's bits", str)
		}
		*s = oracleScore(math.Float64frombits(bits))
	default:
		return fmt.Errorf("ledger: score %q is not a number, +Inf, -Inf or NaN:<bits>", str)
	}
	return nil
}

// oracleProof is Proof with an oracleEntry.
type oracleProof struct {
	Seq         uint64      `json:"seq"`
	Batch       uint64      `json:"batch"`
	Index       int         `json:"index"`
	Entry       oracleEntry `json:"entry"`
	Steps       []ProofStep `json:"steps"`
	Root        string      `json:"root"`
	PrevChained string      `json:"prev_chained"`
	Chained     string      `json:"chained"`
}

// sameProof reports whether p and o hold the same values, the score's bits
// included.
func sameProof(p Proof, o oracleProof) bool {
	e, oe := p.Entry, Entry(o.Entry)
	sameScore := math.Float64bits(e.Score) == math.Float64bits(oe.Score)
	e.Score, oe.Score = 0, 0
	return sameScore && e == oe && p.Seq == o.Seq && p.Batch == o.Batch && p.Index == o.Index &&
		p.Root == o.Root && p.PrevChained == o.PrevChained && p.Chained == o.Chained &&
		(p.Steps == nil) == (o.Steps == nil) && fmt.Sprint(p.Steps) == fmt.Sprint(o.Steps)
}

// TestLedgerDocumentsMatchEncodingJSON pins the /ledger/root and
// /ledger/proof documents, and an entry's JSON, to encoding/json's bytes:
// the proof as json.MarshalIndent writes it around the oracle's entry.
func TestLedgerDocumentsMatchEncodingJSON(t *testing.T) {
	entries := []Entry{
		{Seq: 1, Channel: "a", UnixNanos: -5, Score: 0.125, Path: "exact"},
		{Seq: 2, Channel: "<b&\u2028>", ChannelSeq: 9, Anomaly: true, Exact: true, Score: 1e-9, Path: "tier-skip"},
		{Seq: 3, Channel: "\xff", Score: math.Inf(1)}, {Seq: 4, Score: math.Inf(-1)},
		{Seq: 5, Score: math.Float64frombits(0x7ff8000000000abc)}, {Seq: 6, Score: math.Copysign(0, -1)},
		{Seq: 7, Score: 1e21},
	}
	for i, e := range entries {
		got, err := e.MarshalJSON()
		want, werr := oracleEntry(e).MarshalJSON()
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("entry %+v: %s (%v), encoding/json %s (%v)", e, got, err, want, werr)
		}
		p := Proof{Seq: e.Seq, Batch: 3, Index: i, Entry: e, Root: "r", PrevChained: "p", Chained: "c"}
		if i%2 == 1 {
			p.Steps = []ProofStep{{Hash: "00", Left: true}, {Hash: "ff"}}
		}
		o := oracleProof{p.Seq, p.Batch, p.Index, oracleEntry(e), p.Steps, p.Root, p.PrevChained, p.Chained}
		same(t, "proof", p.WriteJSON, o)
	}
	same(t, "proof without steps", Proof{Steps: []ProofStep{}}.WriteJSON, oracleProof{Steps: []ProofStep{}})
	for _, ri := range []RootInfo{{Chained: "00"}, {Batches: 2, Entries: 10, Pending: 3, Root: "ab", Chained: "cd"}} {
		same(t, "root", ri.WriteJSON, ri)
	}
}

// same fails unless write writes json.MarshalIndent(v, "", "  ").
func same(t *testing.T, what string, write func(*wire.JSON), v any) {
	t.Helper()
	want, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	j := wire.JSON{Indent: true}
	write(&j)
	if j.Err() != nil || !bytes.Equal(j.B, want) {
		t.Fatalf("%s (%v):\n got %s\nwant %s", what, j.Err(), j.B, want)
	}
}
