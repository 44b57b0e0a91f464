//go:build !linux || loong64 || riscv64

package durable

import (
	"os"
	"path/filepath"
)

// Commit writes b to the file name in d by the protocol Commit states.
func (d *Dir) Commit(name string, b []byte) error {
	path := filepath.Join(d.path, name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if os.IsExist(err) {
		os.Remove(tmp)
		f, err = os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	}
	if err != nil {
		return dirError("staging", path, err)
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
		return dirError("committing", path, err)
	}
	return d.Sync()
}

// ReadFile reads the file name in d, by path.
func (d *Dir) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.path, name))
}
