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
	"os"
	"path/filepath"
	"testing"
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
		if err := json.Unmarshal(data, &p); err != nil {
			return
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
