package hdc

import "math/bits"

// The package's two primitives and their one dispatch point. Every
// XOR+popcount the searcher computes — a single-tier kernel block, a
// ladder tier plane, one survivor's completion — is a call to
// xorPopRows, and every encode and bundle a call to signedSumWords
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

// xorPopRows computes the Hamming distance between qw[:width] and each
// of `rows` rows of width words, row r starting at packed[r*stride],
// and writes it to dst[r] — or, with add, accumulates it there (one
// rung of a tiered score). The slices are cut to exactly the words the
// kernel may touch, so an out-of-range geometry panics here, in Go, and
// an assembly kernel needs no bounds checks of its own.
func xorPopRows(qw, packed []uint64, stride, width, rows int, dst []int, add bool) {
	if rows <= 0 {
		return
	}
	xorPopKernel(qw[:width], packed[:(rows-1)*stride+width], stride, width, rows, dst[:rows], add)
}

// xorPopRowsGo is the reference kernel and the fallback everywhere the
// assembly is not: the word loop is 8-way unrolled through array
// pointers (one bounds check per stride) with two accumulators so the
// scalar popcounts pipeline.
func xorPopRowsGo(qw, packed []uint64, stride, width, rows int, dst []int, add bool) {
	for r := 0; r < rows; r++ {
		row := packed[r*stride : r*stride+width]
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
		if add {
			dst[r] += d0 + d1
		} else {
			dst[r] = d0 + d1
		}
	}
}
