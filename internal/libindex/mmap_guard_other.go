//go:build unix && !(linux && (amd64 || arm64))

package libindex

import "syscall"

// reserveFreed has no in-place reservation outside 64-bit Linux (the
// raw mmap call differs per platform): a test binary unmaps like
// production does.
func reserveFreed(data []byte) error { return syscall.Munmap(data) }
