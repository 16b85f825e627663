//go:build amd64 && !purego

#include "textflag.h"

// Register plan of signedSumGroupAVX512: Z0..Z15 are the vertical
// counter, plane k of the group's 512 running sums in Zk; Z16..Z19 the
// peak's four addend planes, Z20 its level vector, Z21 the carry;
// Z22/Z23 the compare's gt/eq lanes, Z24/Z25 its scratch.
//
// VPTERNLOGQ $imm, C, B, A sets every bit of A to bit (A<<2 | B<<1 | C)
// of the truth table imm. The five tables used:
//
//	0x78  A ^ (B & C)        addend plane = neg plane ^ (level & delta plane)
//	0x96  A ^ B ^ C          full-adder sum of (counter, addend, carry)
//	0xD4  maj(A^B^C, A, B)   full-adder carry out, A the carry in, B the
//	                         addend and C the sum 0x96 has just written
//	                         over the counter plane (A^B^C recovers it)
//	0xF8  A | (B & C)        gt |= eq & x
//	0x90  A & ~(B ^ C)       eq &= ~(counter ^ m)

// ADDEND loads the neg plane at off(AX) and flips it where the level
// bit selects the o+id product: Za = neg ^ (level & delta).
#define ADDEND(off, Za) \
	VMOVDQU64  off(AX), Za \
	VPTERNLOGQ $0x78, (off+256)(AX), Z20, Za

// FULL adds addend plane Za and the carry into counter plane Zc.
#define FULL(Za, Zc) \
	VPTERNLOGQ $0x96, Z21, Za, Zc \
	VPTERNLOGQ $0xD4, Zc, Za, Z21

// HALF ripples the carry into counter plane k, or leaves the peak when
// the sums have no plane k: they are at most 2o·P < 2^nplanes, so the
// carry out of plane nplanes-1 is always zero.
#define HALF(k, Zc) \
	CMPQ    R12, $k \
	JLE     next \
	VPXORQ  Z21, Zc, Zc \
	VPANDNQ Z21, Zc, Z21

// COMPARE folds counter plane k into the running sums > o·P (Z22) and
// sums == o·P (Z23) lanes, top plane down: m is bit k of o·P spread
// over every lane.
#define COMPARE(k, Zc) \
	BTQ          $k, R14 \
	SBBQ         AX, AX \
	VPBROADCASTQ AX, Z24 \
	VPANDNQ      Zc, Z24, Z25 \
	VPTERNLOGQ   $0xF8, Z25, Z23, Z22 \
	VPTERNLOGQ   $0x90, Z24, Zc, Z23

// func signedSumGroupAVX512(out *uint64, n int, planes *uint64, binStride int, lv *uint64, lvStride, top int, peaks []spectrum.QuantizedPeak, nplanes int, half uint64)
//
// Per peak: one level-vector load, four plane loads and four ternlogs
// with a memory operand build the addend planes; a half adder on plane
// 0, full adders on planes 1..3 and a half-adder chain up to plane
// nplanes-1 add them into the counter — five loads and
// 12 + 2·(nplanes-4) vector ALU ops for 512 dimensions. Planes the chain never reaches stay zero, as do
// those bits of half, so the compare walks all sixteen. The caller
// guarantees 1 <= n <= 8, nplanes <= 16, top >= 0, every peak's bin
// inside planes and whole 64-byte vectors behind every load.
TEXT ·signedSumGroupAVX512(SB), NOSPLIT, $0-96
	MOVQ planes+16(FP), SI
	MOVQ binStride+24(FP), R8
	MOVQ lv+32(FP), DI
	MOVQ lvStride+40(FP), R9
	MOVQ top+48(FP), R10
	MOVQ peaks_base+56(FP), DX
	MOVQ peaks_len+64(FP), R11
	MOVQ nplanes+80(FP), R12
	MOVQ half+88(FP), R14
	SHLQ $3, R8 // strides in bytes
	SHLQ $3, R9
	XORQ R13, R13 // the level clamp's floor

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	TESTQ  R11, R11
	JZ     compare

peak:
	MOVQ      (DX), AX  // Bin
	MOVQ      8(DX), BX // Level, clamped to [0, top]
	ADDQ      $16, DX
	TESTQ     BX, BX
	CMOVQLT   R13, BX
	CMPQ      BX, R10
	CMOVQGT   R10, BX
	IMULQ     R9, BX
	IMULQ     R8, AX
	VMOVDQU64 (DI)(BX*1), Z20
	ADDQ      SI, AX
	ADDEND(0, Z16)
	ADDEND(64, Z17)
	ADDEND(128, Z18)
	ADDEND(192, Z19)
	VPXORQ    Z16, Z0, Z0
	VPANDNQ   Z16, Z0, Z21 // carry = a0 &^ new c0 = a0 & old c0
	FULL(Z17, Z1)
	FULL(Z18, Z2)
	FULL(Z19, Z3)
	HALF(4, Z4)
	HALF(5, Z5)
	HALF(6, Z6)
	HALF(7, Z7)
	HALF(8, Z8)
	HALF(9, Z9)
	HALF(10, Z10)
	HALF(11, Z11)
	HALF(12, Z12)
	HALF(13, Z13)
	HALF(14, Z14)
	HALF(15, Z15)

next:
	DECQ R11
	JNZ  peak

compare:
	VPXORQ     Z22, Z22, Z22
	VPTERNLOGQ $0xFF, Z23, Z23, Z23
	COMPARE(15, Z15)
	COMPARE(14, Z14)
	COMPARE(13, Z13)
	COMPARE(12, Z12)
	COMPARE(11, Z11)
	COMPARE(10, Z10)
	COMPARE(9, Z9)
	COMPARE(8, Z8)
	COMPARE(7, Z7)
	COMPARE(6, Z6)
	COMPARE(5, Z5)
	COMPARE(4, Z4)
	COMPARE(3, Z3)
	COMPARE(2, Z2)
	COMPARE(1, Z1)
	COMPARE(0, Z0)

	// Sign's tie-break: sums == o·P are +1 on even dimensions.
	MOVQ         $0x5555555555555555, AX
	VPBROADCASTQ AX, Z24
	VPTERNLOGQ   $0xF8, Z24, Z23, Z22

	// Store the group's first n words.
	MOVQ      n+8(FP), CX
	MOVL      $1, AX
	SHLL      CX, AX
	DECL      AX
	KMOVW     AX, K1
	MOVQ      out+0(FP), DX
	VMOVDQU64 Z22, K1, (DX)
	VZEROUPPER
	RET
