//go:build linux

package hdc

import (
	"fmt"
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/spectrum"
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
// remainder (rows 1, 3, 11), then over several groups. The served
// index is
// a file mapping whose final row can end on the mapping's last page, so
// a kernel that rounds its last read up to a whole vector would be a
// SIGBUS in production; here it is a crash of this test. The mask is
// guarded too, and compared at a limit through the middle of the
// distances: its byte stores must end with its last word.
func TestKernelReadsNothingPastLastRow(t *testing.T) {
	const maxWidth, maxRows = 130, 11
	rowMem, qMem := guardedWords(t, maxRows*maxWidth), guardedWords(t, maxWidth)
	for i := range rowMem {
		rowMem[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for i := range qMem {
		qMem[i] = ^uint64(i) * 0xc2b2ae3d27d4eb4f
	}
	check := func(width, rows int) {
		t.Helper()
		qw := qMem[len(qMem)-width:]
		packed := rowMem[len(rowMem)-rows*width:]
		got, want := make([]int, rows), make([]int, rows)
		gotMask, wantMask := guardedWords(t, maskWords(rows)), make([]uint64, maskWords(rows))
		xorPopRowsGo(qw, packed, width, rows, 32*width, want, wantMask)
		xorPopRows(qw, packed, width, rows, 32*width, got, gotMask)
		if !slices.Equal(got, want) || !slices.Equal(gotMask, wantMask) {
			t.Fatalf("%s kernel, width %d rows %d:\ngot  %v %x\nwant %v %x", KernelName(), width, rows, got, gotMask, want, wantMask)
		}
	}
	for width := 1; width <= maxWidth; width++ {
		for _, rows := range []int{1, 3, 8, maxRows} {
			check(width, rows)
		}
	}
	// More rows than one eight-row group, the last row being the
	// mapping's.
	for _, rows := range []int{9, 16, 19, 40} {
		check(24, rows)
	}
}

// TestEncodeKernelTouchesNothingPastItsStores puts the plane store, the
// level table and the result words each flush against a PROT_NONE page
// and encodes peaks on the last bin and the top (and a clamped-from-
// beyond) level: the assembly's whole-vector loads of the last bin's
// last group and the top level's last group must end with the padded
// stores, and its store of a partial last group must write the result's
// words and nothing after them.
func TestEncodeKernelTouchesNothingPastItsStores(t *testing.T) {
	const bins, q = 40, 16
	for _, d := range []int{64, 1000, 1536, 2048} {
		for precision := 1; precision <= 3; precision++ {
			e, err := NewEncoder(NewItemMemory(d, bins, precision, 100), NewFlipLevelSet(d, q, 200))
			if err != nil {
				t.Fatal(err)
			}
			planes, lv := guardedWords(t, len(e.IDs.planes)), guardedWords(t, len(e.lv))
			copy(planes, e.IDs.planes)
			copy(lv, e.lv)
			peaks := []spectrum.QuantizedPeak{{Bin: bins - 1, Level: q - 1}, {Bin: 0, Level: 0}, {Bin: bins - 1, Level: q + 5}, {Bin: bins / 2, Level: -3}}
			want, err := e.Encode(peaks)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("D%d/p%d", d, precision), func(t *testing.T) {
				onBothEncodeKernels(t, func(t *testing.T) {
					got := guardedWords(t, len(want.Words))
					signedSumWords(got, planes, lv, precision, peaks)
					BinaryHV{D: d, Words: got}.maskTail()
					if !slices.Equal(got, want.Words) {
						t.Fatalf("guarded stores encode\n%x, heap stores\n%x", got, want.Words)
					}
				})
			})
		}
	}
}
