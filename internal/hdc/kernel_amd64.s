//go:build amd64 && !purego

#include "textflag.h"

// POPCNT_ACC8 popcounts the eight XORed rows in Z0..Z7 into their
// accumulators Z8..Z15.
#define POPCNT_ACC8 \
	VPOPCNTQ Z0, Z0   \
	VPOPCNTQ Z1, Z1   \
	VPOPCNTQ Z2, Z2   \
	VPOPCNTQ Z3, Z3   \
	VPOPCNTQ Z4, Z4   \
	VPOPCNTQ Z5, Z5   \
	VPOPCNTQ Z6, Z6   \
	VPOPCNTQ Z7, Z7   \
	VPADDQ   Z0, Z8, Z8   \
	VPADDQ   Z1, Z9, Z9   \
	VPADDQ   Z2, Z10, Z10 \
	VPADDQ   Z3, Z11, Z11 \
	VPADDQ   Z4, Z12, Z12 \
	VPADDQ   Z5, Z13, Z13 \
	VPADDQ   Z6, Z14, Z14 \
	VPADDQ   Z7, Z15, Z15

// PAIR adds the even and odd qwords of two accumulators side by side:
// out = [a0+a1, b0+b1, a2+a3, b2+b3, ...].
#define PAIR(a, b, out) \
	VPUNPCKLQDQ b, a, Z0 \
	VPUNPCKHQDQ b, a, Z1 \
	VPADDQ      Z1, Z0, out

// QUAD adds the even and odd 128-bit lanes of two vectors side by side:
// out = [a.L0+a.L1, a.L2+a.L3, b.L0+b.L1, b.L2+b.L3].
#define QUAD(a, b, out) \
	VSHUFI64X2 $0x88, b, a, Z0 \
	VSHUFI64X2 $0xdd, b, a, Z1 \
	VPADDQ     Z1, Z0, out

// REDUCE8 transposes-and-adds Z8..Z15 into Z8 = the eight row sums in
// row order: 21 vector ops for eight rows, where eight separate
// horizontal sums cost 56.
#define REDUCE8 \
	PAIR(Z8, Z9, Z8)     \
	PAIR(Z10, Z11, Z10)  \
	PAIR(Z12, Z13, Z12)  \
	PAIR(Z14, Z15, Z14)  \
	QUAD(Z8, Z10, Z8)    \
	QUAD(Z12, Z14, Z12)  \
	QUAD(Z8, Z12, Z8)

// func xorPopRowsAVX512(qw, packed []uint64, width, rows int, dst []int)
//
// Eight rows at a time: each 8-word query vector is loaded once and
// XORed with the matching words of eight rows (VPXORQ with a memory
// operand), the lanes popcounted (VPOPCNTQ) and added into one
// accumulator per row (VPADDQ); the eight accumulators then reduce
// together into eight distances stored by one write. Fewer than eight
// rows left — a block's ragged end, a clip of a few rows —
// take the same steps one row at a time. A tail of width%8 words is
// read under K1 with zeroing, by the query's masked load and the rows'
// masked VPXORQ alike: masked-out lanes are never accessed, so the last
// row of a mapping may end flush against an unmapped page. The
// caller guarantees rows >= 1, width >= 1 and that every row lies
// inside packed.
TEXT ·xorPopRowsAVX512(SB), NOSPLIT, $0-88
	MOVQ qw_base+0(FP), SI
	MOVQ packed_base+24(FP), DI
	MOVQ width+48(FP), R9
	MOVQ rows+56(FP), R10
	MOVQ dst_base+64(FP), DX

	LEAQ (R9*8), R8 // row stride in bytes: rows are contiguous

	// AX, K1 = low width%8 bits; R9 = bytes in whole 8-word vectors.
	MOVQ  R9, CX
	ANDQ  $7, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	SHRQ  $3, R9
	SHLQ  $6, R9

	CMPQ R10, $8
	JB   rows
	LEAQ (R8)(R8*2), R12  // 3 strides
	LEAQ (R8)(R8*4), R13  // 5 strides
	LEAQ (R12)(R8*4), R14 // 7 strides

group:
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	MOVQ   DI, CX // CX walks the group's first row, BX the query
	XORQ   BX, BX
	CMPQ   BX, R9
	JAE    gtail

gvec:
	VMOVDQU64 (SI)(BX*1), Z16
	VPXORQ    (CX), Z16, Z0
	VPXORQ    (CX)(R8*1), Z16, Z1
	VPXORQ    (CX)(R8*2), Z16, Z2
	VPXORQ    (CX)(R12*1), Z16, Z3
	VPXORQ    (CX)(R8*4), Z16, Z4
	VPXORQ    (CX)(R13*1), Z16, Z5
	VPXORQ    (CX)(R12*2), Z16, Z6
	VPXORQ    (CX)(R14*1), Z16, Z7
	POPCNT_ACC8
	ADDQ      $64, CX
	ADDQ      $64, BX
	CMPQ      BX, R9
	JB        gvec

gtail:
	TESTL       AX, AX
	JZ          greduce
	VMOVDQU64.Z (SI)(BX*1), K1, Z16
	VPXORQ.Z    (CX), Z16, K1, Z0
	VPXORQ.Z    (CX)(R8*1), Z16, K1, Z1
	VPXORQ.Z    (CX)(R8*2), Z16, K1, Z2
	VPXORQ.Z    (CX)(R12*1), Z16, K1, Z3
	VPXORQ.Z    (CX)(R8*4), Z16, K1, Z4
	VPXORQ.Z    (CX)(R13*1), Z16, K1, Z5
	VPXORQ.Z    (CX)(R12*2), Z16, K1, Z6
	VPXORQ.Z    (CX)(R14*1), Z16, K1, Z7
	POPCNT_ACC8

greduce:
	REDUCE8
	VMOVDQU64 Z8, (DX)
	ADDQ      $64, DX
	LEAQ      (DI)(R8*8), DI
	SUBQ      $8, R10
	CMPQ      R10, $8
	JAE       group

rows:
	TESTQ R10, R10
	JZ    done

row:
	VPXORQ Z8, Z8, Z8
	XORQ   BX, BX
	CMPQ   BX, R9
	JAE    tail

vec:
	VMOVDQU64 (SI)(BX*1), Z0
	VPXORQ    (DI)(BX*1), Z0, Z0
	VPOPCNTQ  Z0, Z0
	VPADDQ    Z0, Z8, Z8
	ADDQ      $64, BX
	CMPQ      BX, R9
	JB        vec

tail:
	TESTL       AX, AX
	JZ          reduce
	VMOVDQU64.Z (SI)(BX*1), K1, Z0
	VPXORQ.Z    (DI)(BX*1), Z0, K1, Z0
	VPOPCNTQ    Z0, Z0
	VPADDQ      Z0, Z8, Z8

reduce:
	VEXTRACTI64X4 $1, Z8, Y0
	VPADDQ        Y0, Y8, Y8
	VEXTRACTI128  $1, Y8, X0
	VPADDQ        X0, X8, X8
	VPSHUFD       $0xee, X8, X0
	VPADDQ        X0, X8, X8
	VMOVQ         X8, (DX)
	ADDQ          $8, DX
	ADDQ          R8, DI
	DECQ          R10
	JNZ           row

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
