//go:build linux && (amd64 || arm64)

package libindex

import (
	"syscall"
	"unsafe"
)

// reserveFreed is munmapFile in a test binary: it maps an anonymous
// PROT_NONE reservation over the file mapping in place. That releases
// the file and its page cache but never hands the addresses out again,
// so a read through a view that outlived Close faults — a recoverable
// panic under debug.SetPanicOnFault — instead of reading whatever the
// kernel mapped at the freed address next.
func reserveFreed(data []byte) error {
	_, _, errno := syscall.Syscall6(syscall.SYS_MMAP, uintptr(unsafe.Pointer(&data[0])), uintptr(len(data)),
		syscall.PROT_NONE, syscall.MAP_FIXED|syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE, ^uintptr(0), 0)
	if errno != 0 {
		return errno
	}
	return nil
}
