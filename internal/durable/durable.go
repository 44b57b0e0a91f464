// Package durable is how every file the serving tier must keep across a
// crash reaches disk: the WAL's segments, the verdict ledger's batches and
// the pool's checkpoint files and manifest. It holds three rules and
// nothing else, and it links no codec, so the router (which reads
// checkpoints and journals but must not link encoding/gob) can import it.
//
//   - Commit writes a whole file under its final name or not at all.
//   - SyncDir makes a directory's creates, renames and removals durable.
//     Both open a Dir for one call; the ledger holds its Dir open (on Linux,
//     *at system calls on its descriptor: the module's one unsafe).
//   - Numbered names, parses and lists a directory's numbered files
//     (wal-00000001.seg, batch-00000001.blk, ...).
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Commit writes b to path so that a crash leaves either the previous file
// or the whole new one: b is written in one call to path+".tmp", fsynced,
// closed, renamed over path, and path's directory is fsynced, or a power
// loss could keep a later commit (a manifest) and lose this one. The staging
// name is fixed, so a crash's leftover staging file is replaced by the
// next commit of the same path; on any error it is removed. The staging
// file is always created afresh, with mode 0600, so a leftover cannot pass
// on its mode.
func Commit(path string, b []byte) error {
	d, err := OpenDir(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Commit(filepath.Base(path), b)
}

// SyncDir fsyncs dir so the creates, renames and removals inside it are
// durable.
func SyncDir(dir string) error {
	d, err := OpenDir(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Dir is a directory held open for Commit, Sync and ReadFile. On Linux,
// they run as *at system calls on its descriptor — Commit with
// NUL-terminated names it reuses, so a warm commit resolves no path and
// allocates nothing — and a renamed directory keeps receiving commits and
// serving reads, as the WAL's open segment keeps receiving appends: the
// descriptor is the inode, not the path. Elsewhere they go by path. A Dir
// is not safe for concurrent use, except that ReadFile may run beside the
// other methods but Close.
type Dir struct {
	f     *os.File
	path  string
	names []byte // on Linux, "name\x00name.tmp\x00" of the last Commit
}

// OpenDir opens the directory at path. Close releases it.
func OpenDir(path string) (*Dir, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, dirError("opening dir", path, err)
	}
	return &Dir{f: f, path: path}, nil
}

// Sync fsyncs the directory, making the creates, renames and removals
// inside it durable.
func (d *Dir) Sync() error {
	if err := d.f.Sync(); err != nil {
		return dirError("syncing dir", d.path, err)
	}
	return nil
}

// Close releases the directory.
func (d *Dir) Close() error { return d.f.Close() }

// dirError is the error of a failed step of a Dir.
func dirError(op, path string, err error) error {
	return fmt.Errorf("durable: %s %s: %w", op, path, err)
}

// Numbered is a scheme of numbered file names, Prefix + index + Suffix,
// with the index 1-based and written in at least eight digits.
type Numbered struct{ Prefix, Suffix string }

// Name is index's file name.
func (n Numbered) Name(index uint64) string {
	return string(n.Append(make([]byte, 0, 64), index))
}

// Append appends index's file name to b, so that a caller that names a
// file per commit can reuse one buffer.
func (n Numbered) Append(b []byte, index uint64) []byte {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], index, 10)
	b = append(b, n.Prefix...)
	for i := len(d); i < 8; i++ {
		b = append(b, '0')
	}
	return append(append(b, d...), n.Suffix...)
}

// Parse extracts the index from a file name of the scheme. It refuses
// other names, non-numeric indices and index 0.
func (n Numbered) Parse(name string) (uint64, bool) {
	if len(name) < len(n.Prefix)+len(n.Suffix) || !strings.HasPrefix(name, n.Prefix) || !strings.HasSuffix(name, n.Suffix) {
		return 0, false
	}
	i, err := strconv.ParseUint(name[len(n.Prefix):len(name)-len(n.Suffix)], 10, 64)
	if err != nil || i == 0 {
		return 0, false
	}
	return i, true
}

// List returns the indices of dir's files of the scheme, ascending.
func (n Numbered) List(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idx []uint64
	for _, e := range ents {
		if i, ok := n.Parse(e.Name()); ok {
			idx = append(idx, i)
		}
	}
	slices.Sort(idx)
	return idx, nil
}
