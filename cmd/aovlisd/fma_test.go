package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAdd cross-builds the daemon for arm64 and fails if any
// function of this module compiles a product and a sum into one fused
// instruction. Go may fuse x*y + z where the target has FMA (arm64 does;
// amd64 at the default GOAMD64=v1 does not), and a fused result can differ
// from the rounded one in the last bit, so the same WAL would score other
// verdict bits on an arm64 node. Every such product on the scoring, update
// and training paths is rounded explicitly (float64(x*y) + z). No arm64
// binary is run: the instructions are read with go tool objdump.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-builds the daemon for arm64")
	}
	bin := filepath.Join(t.TempDir(), "aovlisd-arm64")
	build := exec.Command("go", "build", "-o", bin, "aovlis/cmd/aovlisd")
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("cross-building aovlisd for arm64: %v\n%s", err, out)
	}
	dis, err := exec.Command("go", "tool", "objdump", bin).Output()
	if err != nil {
		t.Fatalf("go tool objdump: %v", err)
	}
	fused := map[string]bool{"FMADDD": true, "FMSUBD": true, "FNMADDD": true, "FNMSUBD": true}
	var fn string
	var found, scanned int
	sc := bufio.NewScanner(bytes.NewReader(dis))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "TEXT" {
			fn = fields[1]
			if strings.HasPrefix(fn, "aovlis") {
				scanned++
			}
			continue
		}
		// An instruction line: file:line, address, encoding, mnemonic, operands.
		if len(fields) >= 4 && fused[fields[3]] && strings.HasPrefix(fn, "aovlis") {
			found++
			t.Errorf("%s: %s at %s", fn, fields[3], fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if scanned < 100 {
		t.Fatalf("objdump listed %d functions of this module; the disassembly was not read", scanned)
	}
	if found > 0 {
		t.Errorf("%d fused multiply-adds in this module's arm64 code: round the product explicitly, float64(x*y) + z", found)
	}
}
