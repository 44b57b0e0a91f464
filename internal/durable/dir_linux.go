//go:build linux && !loong64 && !riscv64

package durable

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"unsafe"
)

// Commit writes b to the file name in d by the protocol Commit states.
func (d *Dir) Commit(name string, b []byte) error {
	d.names = append(append(append(append(d.names[:0], name...), 0), name...), ".tmp\x00"...)
	dfd, target, tmp := d.f.Fd(), &d.names[0], &d.names[len(name)+1]
	const create = syscall.O_WRONLY | syscall.O_CREAT | syscall.O_EXCL | syscall.O_CLOEXEC | syscall.O_LARGEFILE
	fd, err := at(syscall.SYS_OPENAT, dfd, tmp, create, 0o600)
	if err == syscall.EEXIST {
		at(syscall.SYS_UNLINKAT, dfd, tmp, 0, 0)
		fd, err = at(syscall.SYS_OPENAT, dfd, tmp, create, 0o600)
	}
	if err != nil {
		return dirError("staging", filepath.Join(d.path, string(d.names[:len(name)])), err)
	}
	for err == nil && len(b) > 0 {
		n, werr := syscall.Write(int(fd), b)
		if b = b[max(n, 0):]; werr != syscall.EINTR {
			err = werr
		}
	}
	if err == nil {
		err = retry(func() error { return syscall.Fsync(int(fd)) })
	}
	if cerr := syscall.Close(int(fd)); err == nil {
		err = cerr
	}
	if err == nil {
		err = retry(func() error {
			if _, _, e := syscall.Syscall6(syscall.SYS_RENAMEAT, dfd, uintptr(unsafe.Pointer(tmp)), dfd, uintptr(unsafe.Pointer(target)), 0, 0); e != 0 {
				return e
			}
			return nil
		})
	}
	if err != nil {
		at(syscall.SYS_UNLINKAT, dfd, tmp, 0, 0)
		return dirError("committing", filepath.Join(d.path, string(d.names[:len(name)])), err)
	}
	return d.Sync()
}

// ReadFile reads the file name in d, by openat on the held descriptor. It
// uses none of d's scratch, so it may run beside a Commit.
func (d *Dir) ReadFile(name string) ([]byte, error) {
	p, err := syscall.BytePtrFromString(name)
	if err == nil {
		var fd uintptr
		if fd, err = at(syscall.SYS_OPENAT, d.f.Fd(), p, syscall.O_RDONLY|syscall.O_CLOEXEC, 0); err == nil {
			f := os.NewFile(fd, filepath.Join(d.path, name))
			defer f.Close()
			return io.ReadAll(f)
		}
	}
	return nil, &os.PathError{Op: "open", Path: filepath.Join(d.path, name), Err: err}
}

// at makes the *at system call trap on the directory dfd, the name at p
// and two more arguments.
func at(trap, dfd uintptr, p *byte, a3, a4 uintptr) (r uintptr, err error) {
	err = retry(func() error {
		var e syscall.Errno
		if r, _, e = syscall.Syscall6(trap, dfd, uintptr(unsafe.Pointer(p)), a3, a4, 0, 0); e != 0 {
			return e
		}
		return nil
	})
	return r, err
}

// retry calls f again while a signal interrupts it.
func retry(f func() error) (err error) {
	for err = f(); err == syscall.EINTR; err = f() {
	}
	return err
}
