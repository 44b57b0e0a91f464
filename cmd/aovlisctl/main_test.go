package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aovlis/internal/ledger"
)

// buildLedger commits a small deterministic ledger and returns its
// directory, head info and one proof.
func buildLedger(t *testing.T) (string, ledger.RootInfo, ledger.Proof) {
	t.Helper()
	dir := t.TempDir()
	l, err := ledger.Open(dir, ledger.Options{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 11; i++ {
		if _, err := l.Append(ledger.Entry{
			Channel:    fmt.Sprintf("ch-%d", i%2),
			ChannelSeq: uint64(i),
			UnixNanos:  1700000000000000000 + int64(i),
			Score:      float64(i) * 0.25,
			Exact:      true,
			Path:       "exact",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	p, err := l.Proof(6)
	if err != nil {
		t.Fatal(err)
	}
	head := l.Root()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, head, p
}

func TestVerifySubcommand(t *testing.T) {
	dir, head, _ := buildLedger(t)

	if err := runVerify([]string{"-ledger-dir", dir}); err != nil {
		t.Fatalf("verify on pristine ledger: %v", err)
	}
	if err := runVerify([]string{"-ledger-dir", dir,
		"-expect-chained", head.Chained,
		"-expect-entries", fmt.Sprint(head.Entries)}); err != nil {
		t.Fatalf("verify with matching expectations: %v", err)
	}
	if err := runVerify([]string{"-ledger-dir", dir,
		"-expect-chained", strings.Repeat("0", 64)}); err == nil {
		t.Fatal("verify accepted a wrong expected chained head")
	}
	if err := runVerify([]string{"-ledger-dir", dir, "-expect-entries", "3"}); err == nil {
		t.Fatal("verify accepted a wrong expected entry count")
	}

	// The acceptance criterion, through the CLI: a single flipped byte in
	// a committed batch must fail verification.
	path := filepath.Join(dir, "batch-00000001.blk")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runVerify([]string{"-ledger-dir", dir}); err == nil {
		t.Fatal("verify accepted a ledger with a flipped byte")
	}
}

func TestProofSubcommand(t *testing.T) {
	_, head, p := buildLedger(t)
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "proof.json")
	if err := os.WriteFile(file, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := runProof([]string{"-in", file}); err != nil {
		t.Fatalf("proof on valid input: %v", err)
	}
	// Proof(6) is in batch 2 of 3, so its chain link differs from the
	// head's — pinning the head must reject it, pinning its own link not.
	if err := runProof([]string{"-in", file, "-expect-chained", p.Chained}); err != nil {
		t.Fatalf("proof with matching chain link: %v", err)
	}
	if p.Chained != head.Chained {
		if err := runProof([]string{"-in", file, "-expect-chained", head.Chained}); err == nil {
			t.Fatal("proof accepted a mismatched expected chain link")
		}
	}

	tampered := p
	tampered.Entry.Score += 1
	raw2, err := json.Marshal(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, raw2, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runProof([]string{"-in", file}); err == nil {
		t.Fatal("proof accepted a tampered entry")
	}

	if err := os.WriteFile(file, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runProof([]string{"-in", file}); err == nil {
		t.Fatal("proof accepted malformed JSON")
	}
}

// TestVerifyGobGolden: the CLI audits a ledger written in the gob batch
// format, unchanged, against the head that ledger was published with
// (internal/ledger's TestGobGoldenCompat describes the directory).
func TestVerifyGobGolden(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "ledger", "testdata", "golden-gob")
	if err := runVerify([]string{"-ledger-dir", dir,
		"-expect-chained", "604a40456daca8f8be758f09a86ffc9c3d44b4fb217ca89afe89d18012dc9cb0",
		"-expect-entries", "13"}); err != nil {
		t.Fatalf("verify on the gob-format golden: %v", err)
	}
}
