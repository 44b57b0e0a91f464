// Package durable is how every file the serving tier must keep across a
// crash reaches disk: the WAL's segments, the verdict ledger's batches and
// the pool's checkpoint files and manifest. It holds three rules and
// nothing else, and it links no codec, so the router (which reads
// checkpoints and journals but must not link encoding/gob) can import it.
//
//   - Commit writes a whole file under its final name or not at all.
//   - SyncDir makes a directory's creates, renames and removals durable.
//   - Numbered names, parses and lists a directory's numbered files
//     (wal-00000001.seg, batch-00000001.blk, ...).
package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Commit writes b to path so that a crash leaves either the previous file
// or the whole new one: b is written in one call to path+".tmp", fsynced,
// closed, renamed over path, and path's directory is fsynced. The staging
// name is fixed, so a crash's leftover staging file is replaced by the
// next commit of the same path; on any error it is removed. The staging
// file is always created afresh, with mode 0600, so a leftover cannot pass
// on its mode.
func Commit(path string, b []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if errors.Is(err, fs.ErrExist) {
		os.Remove(tmp)
		f, err = os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	}
	if err != nil {
		return fmt.Errorf("durable: staging %s: %w", path, err)
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: committing %s: %w", path, err)
	}
	// The rename is atomic but not durable until the directory entry is on
	// disk: without this a power loss could keep a later commit (a
	// manifest) and lose this one (a file the manifest names).
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs dir so the creates, renames and removals inside it are
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: opening dir %s for sync: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: syncing dir %s: %w", dir, err)
	}
	return nil
}

// Numbered is a scheme of numbered file names, Prefix + index + Suffix,
// with the index 1-based and written in at least eight digits.
type Numbered struct{ Prefix, Suffix string }

// Name is index's file name. It is built by hand, not by fmt, so that a
// ledger commit allocates only the name itself.
func (n Numbered) Name(index uint64) string {
	var buf [64]byte
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], index, 10)
	b := append(buf[:0], n.Prefix...)
	for i := len(d); i < 8; i++ {
		b = append(b, '0')
	}
	return string(append(append(b, d...), n.Suffix...))
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
