//go:build !unix

package libindex

import (
	"fmt"
	"os"
)

// mmapFile is unavailable on this platform: it fails, and openPartition
// falls back to the copying loader.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return nil, fmt.Errorf("libindex: memory mapping not supported on this platform")
}

// munmapFile matches mmap_unix.go; it is never reached, as mmapFile
// never succeeds.
func munmapFile(data []byte) error {
	return nil
}

// syncDir is a no-op: this platform cannot fsync a directory.
func syncDir(dir string) error { return nil }

// lockExclusive is a no-op: writers on this platform are not excluded.
func lockExclusive(f *os.File) error { return nil }
