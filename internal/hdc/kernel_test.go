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
// vector; limit is the admission bound the mask is set against.
type kernelCase struct {
	width, rows, qOff, pOff, limit int
}

// kernelLimits are the bounds every geometry runs at: nothing admitted,
// a random cut through the distances, and everything admitted.
func kernelLimits(rng *rand.Rand, width int) []int {
	return []int{0, rng.Intn(64*width + 1), 64*width + 1}
}

// checkKernel runs the dispatched kernel and the Go reference over the
// same random words and requires identical distances and masks, and a
// reference mask that sets bit r exactly when distance r is below the
// limit. dst and mask are prefilled so the kernel must overwrite them;
// a guard element past dst[rows-1] and a guard word past the mask's
// last word must survive.
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
	packed := words(c.pOff + c.rows*c.width)[c.pOff:]
	want := make([]int, c.rows+1)
	for i := range want {
		want[i] = rng.Intn(1 << 20)
	}
	wantMask := words(maskWords(c.rows) + 1)
	got, gotMask := slices.Clone(want), slices.Clone(wantMask)
	xorPopRowsGo(qw, packed, c.width, c.rows, c.limit, want, wantMask)
	xorPopRows(qw, packed, c.width, c.rows, c.limit, got, gotMask)
	if !slices.Equal(got, want) || !slices.Equal(gotMask, wantMask) {
		t.Fatalf("%s kernel, case %+v:\ngot  %v\n     %x\nwant %v\n     %x", KernelName(), c, got, gotMask, want, wantMask)
	}
	for r := range maskWords(c.rows) * 64 {
		if set, admit := wantMask[r/64]>>(r%64)&1 == 1, r < c.rows && want[r] < c.limit; set != admit {
			t.Fatalf("case %+v: reference mask bit %d is %t, want %t", c, r, set, admit)
		}
	}
}

// TestKernelMatchesReference holds the dispatched kernel to the Go
// reference over every width 1..130 (every tail-mask value, zero to
// sixteen whole vectors) and block-sized and ragged row counts, the
// alignment pair advancing with every case; the sweep's own widths
// then take all 64 pairs. Every case runs at each of kernelLimits.
func TestKernelMatchesReference(t *testing.T) {
	t.Logf("dispatched kernel: %s", KernelName())
	rng := rand.New(rand.NewSource(1))
	n := 0
	for width := 1; width <= 130; width++ {
		for _, rows := range []int{0, 1, 3, 64, 70} {
			for _, limit := range kernelLimits(rng, width) {
				checkKernel(t, int64(n), kernelCase{width, rows, n % 8, n / 8 % 8, limit})
			}
			n++
		}
	}
	for _, width := range []int{8, 13, 24, 32, 128} {
		for qOff := 0; qOff < 8; qOff++ {
			for pOff := 0; pOff < 8; pOff++ {
				for _, limit := range kernelLimits(rng, width) {
					checkKernel(t, int64(width), kernelCase{width, 9, qOff, pOff, limit})
				}
			}
		}
	}
}

// FuzzKernelMatchesReference lets the fuzzer pick the geometry, the
// words and the limit (0 through 64·width+1).
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(64), uint8(0), uint8(0), uint16(1024))
	f.Add(int64(2), uint8(8), uint8(70), uint8(3), uint8(5), uint16(0))
	f.Add(int64(3), uint8(129), uint8(1), uint8(7), uint8(1), uint16(8321))
	f.Add(int64(4), uint8(7), uint8(0), uint8(1), uint8(7), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, width, rows, qOff, pOff uint8, limit uint16) {
		w := 1 + int(width)%130
		checkKernel(t, seed, kernelCase{w, int(rows) % 71, int(qOff) % 8, int(pOff) % 8, int(limit) % (64*w + 2)})
	})
}
