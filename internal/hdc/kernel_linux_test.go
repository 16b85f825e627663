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
// remainder (rows 1, 3, 11), then as the ladder's run completion calls
// the kernel (a strided deep tier, several groups). The served index is
// a file mapping whose final row can end on the mapping's last page, so
// a kernel that rounds its last read up to a whole vector would be a
// SIGBUS in production; here it is a crash of this test.
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
	// The ladder's run completion over a mapped index: a deep tier's 24
	// words at the full row's stride of 32, accumulated onto the partial
	// distances, more rows than one eight-row group, the run's last row
	// being the mapping's.
	const width, stride = 24, 32
	for _, rows := range []int{9, 16, 19, 40} {
		qw := qMem[len(qMem)-width:]
		packed := rowMem[len(rowMem)-((rows-1)*stride+width):]
		got, want := make([]int, rows), make([]int, rows)
		for i := range got {
			got[i], want[i] = 7*i, 7*i
		}
		xorPopRowsGo(qw, packed, stride, width, rows, want, true)
		xorPopRows(qw, packed, stride, width, rows, got, true)
		if !slices.Equal(got, want) {
			t.Fatalf("%s kernel, run of %d rows:\ngot  %v\nwant %v", KernelName(), rows, got, want)
		}
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
