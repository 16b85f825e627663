//go:build unix

package libindex

import (
	"errors"
	"fmt"
	"os"
	"syscall"
	"testing"
)

// mmapFile maps size bytes of f read-only. The mapping is shared, so
// the pages are backed by the page cache: cold partitions cost no heap
// and fault in lazily, and a re-opened index whose pages are still
// resident costs no I/O at all. It is never writable, so a write
// through any view of it faults.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 {
		return nil, fmt.Errorf("libindex: cannot map %d-byte file", size)
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("libindex: file of %d bytes exceeds the address space", size)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmapFile releases a mapping created by mmapFile. In a test binary
// it keeps the address range reserved instead (reserveFreed), so a
// view that outlived Close can never read a later mapping.
func munmapFile(data []byte) error {
	if testing.Testing() {
		return reserveFreed(data)
	}
	return syscall.Munmap(data)
}

// syncDir fsyncs a directory so the entries just created, renamed or
// removed in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// lockExclusive takes a non-blocking exclusive flock on f.
func lockExclusive(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if err == syscall.EWOULDBLOCK {
		return errors.New("another writer holds the lock")
	}
	return err
}
