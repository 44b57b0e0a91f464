// Command aovlisctl is the operator's offline audit tool for aovlisd's
// durable state. It trusts nothing but the bytes on disk (or on stdin):
// verification re-hashes every ledger batch, re-links the whole chain and
// compares against roots the operator recorded out-of-band.
//
// Subcommands:
//
//	verify -ledger-dir DIR [-expect-chained HEX] [-expect-entries N]
//	    Re-verify a verdict ledger directory bottom-up: per-batch
//	    self-checksums, Merkle roots, chain links and sequence
//	    contiguity. Any single-byte mutation of a committed batch fails.
//	    -expect-chained pins the chained head to a previously published
//	    /ledger/root value, which also rules out truncation or rewrite of
//	    a ledger suffix; -expect-entries pins the committed entry count.
//
//	proof [-in FILE] [-expect-chained HEX]
//	    Verify one inclusion proof (JSON from GET /ledger/proof/{seq}),
//	    read from FILE or stdin. With -expect-chained the proof must also
//	    commit under that chain link, so a forged daemon cannot mint a
//	    self-consistent proof for a verdict the audited ledger never held.
//
// Exit status is 0 only when every check passes, so the commands gate
// shell pipelines and CI jobs directly (scripts/smoke.sh wal).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"aovlis/internal/ledger"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "verify":
		err = runVerify(os.Args[2:])
	case "proof":
		err = runProof(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "aovlisctl: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aovlisctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  aovlisctl verify -ledger-dir DIR [-expect-chained HEX] [-expect-entries N]
  aovlisctl proof [-in FILE] [-expect-chained HEX]`)
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("ledger-dir", "", "verdict ledger directory to verify")
	expectChained := fs.String("expect-chained", "", "require the chained head to equal this hex value (from a recorded GET /ledger/root)")
	expectEntries := fs.Int64("expect-entries", -1, "require exactly this many committed entries (-1 skips the check)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("verify needs -ledger-dir")
	}
	info, err := ledger.Verify(*dir)
	if err != nil {
		return fmt.Errorf("ledger %s FAILED verification: %w", *dir, err)
	}
	if *expectChained != "" && info.Chained != *expectChained {
		return fmt.Errorf("ledger %s chained head is %s, expected %s: the ledger is not the one whose root was recorded", *dir, info.Chained, *expectChained)
	}
	if *expectEntries >= 0 && info.Entries != uint64(*expectEntries) {
		return fmt.Errorf("ledger %s holds %d committed entries, expected %d", *dir, info.Entries, *expectEntries)
	}
	fmt.Printf("ledger OK: %d batches, %d entries, chained %s\n", info.Batches, info.Entries, info.Chained)
	return nil
}

func runProof(args []string) error {
	fs := flag.NewFlagSet("proof", flag.ExitOnError)
	in := fs.String("in", "", "proof JSON file (default: stdin)")
	expectChained := fs.String("expect-chained", "", "require the proof's chain link to equal this hex value")
	fs.Parse(args)
	raw, err := readInput(*in)
	if err != nil {
		return err
	}
	var p ledger.Proof
	if err := json.Unmarshal(raw, &p); err != nil {
		return fmt.Errorf("parsing proof: %w", err)
	}
	if err := ledger.VerifyProof(p); err != nil {
		return fmt.Errorf("proof for seq %d FAILED verification: %w", p.Seq, err)
	}
	if *expectChained != "" && p.Chained != *expectChained {
		return fmt.Errorf("proof for seq %d commits under chain link %s, expected %s", p.Seq, p.Chained, *expectChained)
	}
	fmt.Printf("proof OK: seq %d (channel %s, batch %d) under chained %s\n", p.Seq, p.Entry.Channel, p.Batch, p.Chained)
	return nil
}

func readInput(path string) ([]byte, error) {
	if path == "" || path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}
