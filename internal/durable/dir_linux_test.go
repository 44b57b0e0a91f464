//go:build linux && !loong64 && !riscv64

package durable

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestDirFollowsItsInode pins that a held directory is its inode, not its
// path: after a rename, commits land in the moved directory and reads
// find them there.
func TestDirFollowsItsInode(t *testing.T) {
	parent := t.TempDir()
	dir, moved := filepath.Join(parent, "d"), filepath.Join(parent, "moved")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := os.Rename(dir, moved); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := names(t, moved); !slices.Equal(got, []string{"f"}) {
		t.Fatalf("moved directory holds %v, want [f]", got)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("the old path exists again: %v", err)
	}
	if b, err := d.ReadFile("f"); err != nil || string(b) != "x" {
		t.Fatalf("ReadFile of the moved directory's f = %q, %v; want \"x\"", b, err)
	}
	if _, err := d.ReadFile("absent"); !os.IsNotExist(err) {
		t.Fatalf("ReadFile of a missing file: %v, want a not-exist error", err)
	}
}

// TestDirCommitSteadyStateAllocs pins that a warm commit through a held
// directory allocates nothing: the staging and target names are written
// into the Dir's own buffer and the steps are system calls on its
// descriptor.
func TestDirCommitSteadyStateAllocs(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var name [32]byte
	b := []byte("a batch file's bytes")
	allocs := testing.AllocsPerRun(50, func() {
		n := (Numbered{Prefix: "batch-", Suffix: ".blk"}).Append(name[:0], 7)
		if err := d.Commit(string(n), b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm commit allocates %v times, want 0", allocs)
	}
}
