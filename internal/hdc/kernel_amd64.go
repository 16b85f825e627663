//go:build amd64 && !purego

package hdc

// Implemented in kernel_amd64.s.

// xorPopRowsAVX512 is xorPopRowsGo eight words per instruction. It
// trusts its geometry (xorPopRows has already cut the slices to it) and
// reads nothing past a row's last word.
//
//go:noescape
func xorPopRowsAVX512(qw, packed []uint64, stride, width, rows int, dst []int, add bool)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func init() {
	if hasAVX512VPOPCNTDQ() {
		xorPopKernel, kernelName = xorPopRowsAVX512, "avx512-vpopcntdq"
	}
}

// hasAVX512VPOPCNTDQ reports whether the kernel's instructions may run:
// the CPU must implement AVX512F and AVX512_VPOPCNTDQ (CPUID leaf 7),
// and the OS must save the state they use across context switches —
// OSXSAVE, then XCR0's SSE, AVX, opmask and both ZMM bits. A CPU flag
// alone is not enough: under an OS or hypervisor that has not enabled
// ZMM state the instructions fault.
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
