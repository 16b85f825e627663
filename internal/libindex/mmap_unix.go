//go:build unix

package libindex

import (
	"fmt"
	"os"
	"syscall"
	"testing"
)

// mmapSupported reports whether this platform can memory-map an index
// file; when false OpenFile silently falls back to the copying loader.
const mmapSupported = true

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
