package hdc

import "math/bits"

// The package's two primitives and their one dispatch point. Every
// XOR+popcount the searcher computes — one query's clip of a kernel
// block, scored and filtered against its heap's admission bound — is a
// call to xorPopRows, and every encode and bundle a call to signedSumWords
// (encoder.go); each forwards to the package's kernel value, the
// portable Go reference unless an ISA file's init found something
// wider (kernel_amd64.go: one gate, both values).
var (
	xorPopKernel    = xorPopRowsGo
	signedSumKernel = signedSumWordsGo
	kernelName      = "go"
)

// KernelName names the kernels this process sweeps and encodes with:
// "avx512-vpopcntdq" or "go" (the portable loops — the CPU or OS lacks
// the ISA, the build is not amd64, or it carries the purego tag).
func KernelName() string { return kernelName }

// xorPopRows writes to dst[r] the Hamming distance between qw[:width]
// and each of `rows` contiguous rows of width words, row r starting at
// packed[r*width], and sets bit r of the row bitmap mask (bit r%64 of
// mask[r/64]) exactly when dst[r] < limit, clearing every other bit of
// mask[:ceil(rows/64)]: the sweep's admission test, made where the
// distance is. The slices are cut to exactly the words the kernel may
// touch, so an out-of-range geometry panics here, in Go, and an
// assembly kernel needs no bounds checks of its own.
func xorPopRows(qw, packed []uint64, width, rows, limit int, dst []int, mask []uint64) {
	if rows <= 0 {
		return
	}
	mask = mask[:maskWords(rows)]
	// The assembly stores the mask a byte per eight rows: the last
	// word's bytes past them stay as cleared here.
	mask[len(mask)-1] = 0
	xorPopKernel(qw[:width], packed[:rows*width], width, rows, limit, dst[:rows], mask)
}

// maskWords is the number of words in a kernel mask of n rows, a bit
// per row.
func maskWords(n int) int { return (n + 63) / 64 }

// xorPopRowsGo is the reference kernel and the fallback everywhere the
// assembly is not: the word loop is 8-way unrolled through array
// pointers (one bounds check per eight words) with two accumulators so
// the scalar popcounts pipeline; the mask is built a word at a time.
func xorPopRowsGo(qw, packed []uint64, width, rows, limit int, dst []int, mask []uint64) {
	var m uint64
	for r := 0; r < rows; r++ {
		row := packed[r*width : (r+1)*width]
		var d0, d1 int
		i := 0
		for ; i+8 <= len(row); i += 8 {
			x := (*[8]uint64)(row[i:])
			y := (*[8]uint64)(qw[i:])
			d0 += bits.OnesCount64(x[0]^y[0]) +
				bits.OnesCount64(x[1]^y[1]) +
				bits.OnesCount64(x[2]^y[2]) +
				bits.OnesCount64(x[3]^y[3])
			d1 += bits.OnesCount64(x[4]^y[4]) +
				bits.OnesCount64(x[5]^y[5]) +
				bits.OnesCount64(x[6]^y[6]) +
				bits.OnesCount64(x[7]^y[7])
		}
		for ; i < len(row); i++ {
			d0 += bits.OnesCount64(row[i] ^ qw[i])
		}
		dst[r] = d0 + d1
		if dst[r] < limit {
			m |= 1 << (r & 63)
		}
		if r&63 == 63 || r == rows-1 {
			mask[r>>6], m = m, 0
		}
	}
}
