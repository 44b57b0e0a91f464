package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// names lists dir's entries.
func names(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// TestCommit runs the protocol both ways in: Commit by path, and a held
// Dir's Commit by name.
func TestCommit(t *testing.T) {
	for _, held := range []bool{false, true} {
		t.Run(fmt.Sprintf("held=%v", held), func(t *testing.T) {
			dir := t.TempDir()
			commit := func(name string, b []byte) error { return Commit(filepath.Join(dir, name), b) }
			if held {
				d, err := OpenDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				commit = d.Commit
			}
			testCommit(t, dir, commit)
		})
	}
}

func testCommit(t *testing.T, dir string, commit func(name string, b []byte) error) {
	path := filepath.Join(dir, "ch.snap")
	if err := commit("ch.snap", []byte("hello snapshot")); err != nil {
		t.Fatal(err)
	}
	// A crash's leftover staging file, longer than the next payload and of
	// any mode, is replaced whole by the next commit of the same file, over
	// the committed one, and the committed file has Commit's mode, not the
	// leftover's.
	for _, mode := range []os.FileMode{0o644, 0o400, 0o000} {
		if err := os.WriteFile(path+".tmp", []byte("a torn and much longer staging file"), 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(path+".tmp", mode); err != nil { // whatever the umask
			t.Fatal(err)
		}
		want := fmt.Sprintf("after a %v leftover", mode)
		if err := commit("ch.snap", []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("committed %q, %v; want %q", got, err, want)
		}
		if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
			t.Fatalf("committed file mode %v, %v; want 0600", fi.Mode(), err)
		}
	}
	if got := names(t, dir); !slices.Equal(got, []string{"ch.snap"}) {
		t.Fatalf("directory holds %v after commits, want only ch.snap", got)
	}

	// A commit that fails (here at the rename: the target is a non-empty
	// directory) leaves the target as it was and no staging file behind.
	if err := os.MkdirAll(filepath.Join(dir, "busy", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := commit("busy", []byte("payload")); err == nil {
		t.Fatal("commit over a non-empty directory succeeded")
	}
	if got := names(t, dir); !slices.Equal(got, []string{"busy", "ch.snap"}) {
		t.Fatalf("directory holds %v after a failed commit, want [busy ch.snap]", got)
	}
	if err := commit(filepath.Join("missing", "f"), nil); err == nil {
		t.Fatal("commit into a missing directory succeeded")
	}
}

func TestCommitConcurrentDistinctFiles(t *testing.T) {
	// The pool commits per-channel files concurrently into one directory;
	// distinct target paths must not interfere.
	dir := t.TempDir()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			done <- Commit(filepath.Join(dir, fmt.Sprintf("c%d.snap", i)), fmt.Appendf(nil, "payload-%d", i))
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("c%d.snap", i)))
		if err != nil || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("file %d: %q, %v", i, got, err)
		}
	}
}

func TestNumbered(t *testing.T) {
	seg := Numbered{Prefix: "wal-", Suffix: ".seg"}
	for _, c := range []struct {
		index uint64
		name  string
	}{{1, "wal-00000001.seg"}, {42, "wal-00000042.seg"}, {123456789, "wal-123456789.seg"}} {
		if got := seg.Name(c.index); got != c.name {
			t.Fatalf("Name(%d) = %q, want %q", c.index, got, c.name)
		}
		if got, ok := seg.Parse(c.name); !ok || got != c.index {
			t.Fatalf("Parse(%q) = %d, %v", c.name, got, ok)
		}
	}
	for _, name := range []string{"wal-00000000.seg", "wal-.seg", "wal-x1.seg", "wal--1.seg", "wal-1.seg.tmp", "batch-00000001.blk", "wal-", "x"} {
		if i, ok := seg.Parse(name); ok {
			t.Fatalf("Parse(%q) accepted index %d", name, i)
		}
	}

	dir := t.TempDir()
	for _, name := range []string{"wal-00000010.seg", "wal-00000002.seg", "wal-00000000.seg", "wal-00000003.seg.tmp", "MANIFEST.json", "wal-00000001.seg"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := seg.List(dir); err != nil || !slices.Equal(got, []uint64{1, 2, 10}) {
		t.Fatalf("List = %v, %v; want [1 2 10]", got, err)
	}
	if _, err := seg.List(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Fatalf("List of a missing dir = %v, want a not-exist error", err)
	}
}
