//go:build linux

package hdc

import (
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// guardedWords returns n writable words whose end is flush against an
// inaccessible page: any load past the slice faults.
func guardedWords(t *testing.T, n int) []uint64 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), size/8)[size/8-n:]
}

// TestKernelReadsNothingPastLastRow puts the last row — and the query —
// flush against a PROT_NONE page, at every tail width, with the last
// row falling in an eight-row group (rows 8) and in the one-row
// remainder (rows 1, 3, 11). The served index is a file mapping whose
// final row can end on the mapping's last page, so a kernel that rounds
// its last read up to a whole vector would be a SIGBUS in production;
// here it is a crash of this test.
func TestKernelReadsNothingPastLastRow(t *testing.T) {
	const maxWidth, maxRows, pad = 130, 11, 3
	rowMem, qMem := guardedWords(t, maxRows*(maxWidth+pad)), guardedWords(t, maxWidth)
	for i := range rowMem {
		rowMem[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for i := range qMem {
		qMem[i] = ^uint64(i) * 0xc2b2ae3d27d4eb4f
	}
	got, want := make([]int, maxRows), make([]int, maxRows)
	for width := 1; width <= maxWidth; width++ {
		for _, stride := range []int{width, width + pad} {
			for _, rows := range []int{1, 3, 8, maxRows} {
				qw := qMem[len(qMem)-width:]
				packed := rowMem[len(rowMem)-((rows-1)*stride+width):]
				xorPopRowsGo(qw, packed, stride, width, rows, want, false)
				xorPopRows(qw, packed, stride, width, rows, got, false)
				if !slices.Equal(got[:rows], want[:rows]) {
					t.Fatalf("%s kernel, width %d stride %d rows %d:\ngot  %v\nwant %v", KernelName(), width, stride, rows, got[:rows], want[:rows])
				}
			}
		}
	}
}
