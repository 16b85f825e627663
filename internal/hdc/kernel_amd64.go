//go:build amd64 && !purego

package hdc

import (
	"math/bits"
	"unsafe"

	"repro/internal/spectrum"
)

// Implemented in kernel_amd64.s and encode_amd64.s.

// xorPopRowsAVX512 is xorPopRowsGo eight words per instruction. It
// trusts its geometry (xorPopRows has already cut the slices to it) and
// reads nothing past a row's last word.
//
//go:noescape
func xorPopRowsAVX512(qw, packed []uint64, width, rows int, dst []int)

// signedSumGroupAVX512 is one plane group — eight words, 512
// dimensions — of signedSumWordsGo with the vertical counter's low
// nplanes (≤ 16) planes in registers: it adds every peak's plane group
// at planes[Bin*binStride:] under the level vector at
// lv[clamp(Level, 0, top)*lvStride:], compares the sums against half
// (o·P) and stores the group's first n (1..8) words at out. It trusts
// its geometry (signedSumWords has checked it); its loads are whole
// 64-byte vectors, which the group-padded stores contain.
//
//go:noescape
func signedSumGroupAVX512(out *uint64, n int, planes *uint64, binStride int, lv *uint64, lvStride, top int, peaks []spectrum.QuantizedPeak, nplanes int, half uint64)

// The assembly reads a peak as two 8-byte words, Bin then Level.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(spectrum.QuantizedPeak{})-16]
	_ = [1]struct{}{}[unsafe.Offsetof(spectrum.QuantizedPeak{}.Level)-8]
)

// signedSumRegPlanes is the counter width signedSumGroupAVX512 keeps in
// registers.
const signedSumRegPlanes = 16

// signedSumWordsAVX512 is signedSumWordsGo a plane group per adder op.
// Sums too wide for the register counter (8192 peaks at precision 3)
// take the Go kernel.
func signedSumWordsAVX512(out, planes, lv []uint64, precision int, peaks []spectrum.QuantizedPeak) {
	maxSum := uint64(len(peaks)) << precision
	nplanes := bits.Len64(maxSum)
	if nplanes > signedSumRegPlanes {
		signedSumWordsGo(out, planes, lv, precision, peaks)
		return
	}
	groups := groupsPerHV(len(out))
	lvStride := groups * groupWords
	top := len(lv)/lvStride - 1
	for g := 0; g < groups; g++ {
		signedSumGroupAVX512(&out[g*groupWords], min(groupWords, len(out)-g*groupWords),
			&planes[g*idGroupWords], groups*idGroupWords,
			&lv[g*groupWords], lvStride, top, peaks, nplanes, maxSum>>1)
	}
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func init() {
	if hasAVX512VPOPCNTDQ() {
		xorPopKernel, signedSumKernel, kernelName = xorPopRowsAVX512, signedSumWordsAVX512, "avx512-vpopcntdq"
	}
}

// hasAVX512VPOPCNTDQ reports whether the kernels' instructions may run:
// the CPU must implement AVX512F (the encoder's VPTERNLOGQ adder needs
// nothing more) and AVX512_VPOPCNTDQ (CPUID leaf 7), and the OS must
// save the state they use across context switches — OSXSAVE, then
// XCR0's SSE, AVX, opmask and both ZMM bits. A CPU flag alone is not
// enough: under an OS or hypervisor that has not enabled ZMM state the
// instructions fault.
func hasAVX512VPOPCNTDQ() bool {
	const (
		osxsave    = 1 << 27 // leaf 1 ECX
		avx512f    = 1 << 16 // leaf 7 EBX
		vpopcntdq  = 1 << 14 // leaf 7 ECX
		xcr0AVX512 = 0xe6    // SSE | AVX | opmask | ZMM_Hi256 | Hi16_ZMM
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&xcr0AVX512 != xcr0AVX512 {
		return false
	}
	_, b, c, _ := cpuid(7, 0)
	return b&avx512f != 0 && c&vpopcntdq != 0
}
