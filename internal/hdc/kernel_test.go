package hdc

import (
	"math/rand"
	"slices"
	"testing"
)

// useGoKernel swaps the package's kernel value to the Go reference for
// the rest of the test.
func useGoKernel(t *testing.T) {
	prevKernel, prevName := xorPopKernel, kernelName
	xorPopKernel, kernelName = xorPopRowsGo, "go"
	t.Cleanup(func() { xorPopKernel, kernelName = prevKernel, prevName })
}

// kernelCase is one geometry of the differential test: the query and
// the rows start qOff and pOff words into their buffers, so across
// offsets 0..7 both see every 8-byte alignment relative to a 64-byte
// vector.
type kernelCase struct {
	width, stride, rows int
	add                 bool
	qOff, pOff          int
}

// checkKernel runs the dispatched kernel and the Go reference over the
// same random words and requires identical distances. dst is prefilled
// so add mode accumulates onto something and write mode must overwrite
// it; a guard element past dst[rows-1] must survive.
func checkKernel(t testing.TB, seed int64, c kernelCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := func(n int) []uint64 {
		w := make([]uint64, n)
		for i := range w {
			w[i] = rng.Uint64()
		}
		return w
	}
	qw := words(c.qOff + c.width)[c.qOff:]
	packed := words(c.pOff + max(c.rows-1, 0)*c.stride + c.width)[c.pOff:]
	want := make([]int, c.rows+1)
	for i := range want {
		want[i] = rng.Intn(1 << 20)
	}
	got := slices.Clone(want)
	xorPopRowsGo(qw, packed, c.stride, c.width, c.rows, want, c.add)
	xorPopRows(qw, packed, c.stride, c.width, c.rows, got, c.add)
	if !slices.Equal(got, want) {
		t.Fatalf("%s kernel, case %+v:\ngot  %v\nwant %v", KernelName(), c, got, want)
	}
}

// TestKernelMatchesReference holds the dispatched kernel to the Go
// reference over every width 1..130 (every tail-mask value, zero to
// sixteen whole vectors), contiguous and strided rows, block-sized and
// ragged row counts and both add modes, the alignment pair advancing
// with every case; the sweep's own widths then take all 64 pairs.
func TestKernelMatchesReference(t *testing.T) {
	t.Logf("dispatched kernel: %s", KernelName())
	n := 0
	for width := 1; width <= 130; width++ {
		for _, pad := range []int{0, 1, 5} {
			for _, rows := range []int{0, 1, 3, 64, 70} {
				for _, add := range []bool{false, true} {
					checkKernel(t, int64(n), kernelCase{width, width + pad, rows, add, n % 8, n / 8 % 8})
					n++
				}
			}
		}
	}
	for _, width := range []int{8, 13, 24, 32, 128} {
		for qOff := 0; qOff < 8; qOff++ {
			for pOff := 0; pOff < 8; pOff++ {
				checkKernel(t, int64(width), kernelCase{width, width + pOff%2, 9, qOff%2 == 0, qOff, pOff})
			}
		}
	}
}

// FuzzKernelMatchesReference lets the fuzzer pick the geometry and the
// words.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(0), uint8(64), false, uint8(0), uint8(0))
	f.Add(int64(2), uint8(8), uint8(24), uint8(70), true, uint8(3), uint8(5))
	f.Add(int64(3), uint8(129), uint8(1), uint8(1), true, uint8(7), uint8(1))
	f.Add(int64(4), uint8(7), uint8(0), uint8(0), false, uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, width, pad, rows uint8, add bool, qOff, pOff uint8) {
		w := 1 + int(width)%130
		checkKernel(t, seed, kernelCase{w, w + int(pad)%40, int(rows) % 71, add, int(qOff) % 8, int(pOff) % 8})
	})
}
