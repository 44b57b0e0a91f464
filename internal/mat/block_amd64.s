// Register-block kernels of the training step: the block transpose behind
// TransposeTo, the lane-per-vector sum of squares behind SumSquaresEach and
// the elementwise add behind VecAddInto. The first is data movement; the
// other two add in the order their Go loops do (see train.go), so all three
// are bit-identical to those loops by construction.

#include "textflag.h"

// TRANSPOSE8X8 transposes the 8×8 block of doubles whose rows are Z0–Z7:
// afterwards Z8+k holds column k (element r of it came from row r).
// Unpack pairs rows within 128-bit lanes, two rounds of VSHUFF64X2 gather
// the lanes. Z0–Z7 are clobbered.
#define TRANSPOSE8X8 \
	VUNPCKLPD  Z1, Z0, Z8;         \ // r0₀ r1₀ | r0₂ r1₂ | r0₄ r1₄ | r0₆ r1₆
	VUNPCKHPD  Z1, Z0, Z9;         \ // r0₁ r1₁ | r0₃ r1₃ | …
	VUNPCKLPD  Z3, Z2, Z10;        \
	VUNPCKHPD  Z3, Z2, Z11;        \
	VUNPCKLPD  Z5, Z4, Z12;        \
	VUNPCKHPD  Z5, Z4, Z13;        \
	VUNPCKLPD  Z7, Z6, Z14;        \
	VUNPCKHPD  Z7, Z6, Z15;        \
	VSHUFF64X2 $0x88, Z10, Z8, Z0;  \ // columns 0 and 4 of rows 0–3
	VSHUFF64X2 $0xDD, Z10, Z8, Z1;  \ // columns 2 and 6 of rows 0–3
	VSHUFF64X2 $0x88, Z14, Z12, Z2; \ // columns 0 and 4 of rows 4–7
	VSHUFF64X2 $0xDD, Z14, Z12, Z3; \ // columns 2 and 6 of rows 4–7
	VSHUFF64X2 $0x88, Z11, Z9, Z4;  \ // columns 1 and 5 of rows 0–3
	VSHUFF64X2 $0xDD, Z11, Z9, Z5;  \ // columns 3 and 7 of rows 0–3
	VSHUFF64X2 $0x88, Z15, Z13, Z6; \ // columns 1 and 5 of rows 4–7
	VSHUFF64X2 $0xDD, Z15, Z13, Z7; \ // columns 3 and 7 of rows 4–7
	VSHUFF64X2 $0x88, Z2, Z0, Z8;   \
	VSHUFF64X2 $0xDD, Z2, Z0, Z12;  \
	VSHUFF64X2 $0x88, Z3, Z1, Z10;  \
	VSHUFF64X2 $0xDD, Z3, Z1, Z14;  \
	VSHUFF64X2 $0x88, Z6, Z4, Z9;   \
	VSHUFF64X2 $0xDD, Z6, Z4, Z13;  \
	VSHUFF64X2 $0x88, Z7, Z5, Z11;  \
	VSHUFF64X2 $0xDD, Z7, Z5, Z15

// TRANSPOSE4X4 transposes the 4×4 block whose rows are R0–R3 in place,
// through the temporaries T0–T3 (YMM registers all).
#define TRANSPOSE4X4(R0, R1, R2, R3, T0, T1, T2, T3) \
	VUNPCKLPD  R1, R0, T0;       \ // r0₀ r1₀ | r0₂ r1₂
	VUNPCKHPD  R1, R0, T1;       \ // r0₁ r1₁ | r0₃ r1₃
	VUNPCKLPD  R3, R2, T2;       \
	VUNPCKHPD  R3, R2, T3;       \
	VPERM2F128 $0x20, T2, T0, R0; \
	VPERM2F128 $0x20, T3, T1, R1; \
	VPERM2F128 $0x31, T2, T0, R2; \
	VPERM2F128 $0x31, T3, T1, R3

// func transposeAVX512(dst, src *float64, rows, cols int)
// dst[j*rows+i] = src[i*cols+j] for i < rows&^7, j < cols&^7, one 8×8 block
// at a time; both counts are ≥ 8. The Go wrapper moves the ragged edges.
TEXT ·transposeAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ R8, R10
	SHLQ $3, R10           // dst row stride in bytes
	MOVQ R9, R11
	SHLQ $3, R11           // src row stride in bytes
	LEAQ (R10)(R10*2), R12 // three dst rows
	LEAQ (R11)(R11*2), R13 // three src rows
	SHRQ $3, R8            // row bands
	SHRQ $3, R9            // column blocks
t5band:
	MOVQ SI, AX            // &src[i][0]
	MOVQ DI, BX            // &dst[0][i]
	MOVQ R9, CX
t5blk:
	LEAQ (AX)(R11*4), DX
	VMOVUPD (AX), Z0
	VMOVUPD (AX)(R11*1), Z1
	VMOVUPD (AX)(R11*2), Z2
	VMOVUPD (AX)(R13*1), Z3
	VMOVUPD (DX), Z4
	VMOVUPD (DX)(R11*1), Z5
	VMOVUPD (DX)(R11*2), Z6
	VMOVUPD (DX)(R13*1), Z7
	TRANSPOSE8X8
	LEAQ (BX)(R10*4), DX
	VMOVUPD Z8, (BX)
	VMOVUPD Z9, (BX)(R10*1)
	VMOVUPD Z10, (BX)(R10*2)
	VMOVUPD Z11, (BX)(R12*1)
	VMOVUPD Z12, (DX)
	VMOVUPD Z13, (DX)(R10*1)
	VMOVUPD Z14, (DX)(R10*2)
	VMOVUPD Z15, (DX)(R12*1)
	ADDQ $64, AX           // the next eight columns of src
	LEAQ (BX)(R10*8), BX   // are the next eight rows of dst
	DECQ CX
	JNZ  t5blk
	LEAQ (SI)(R11*8), SI
	ADDQ $64, DI
	DECQ R8
	JNZ  t5band
	VZEROUPPER
	RET

// func transposeAVX2(dst, src *float64, rows, cols int)
// The same in 4×4 blocks over i < rows&^3, j < cols&^3; both counts ≥ 4.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ R8, R10
	SHLQ $3, R10
	MOVQ R9, R11
	SHLQ $3, R11
	LEAQ (R10)(R10*2), R12
	LEAQ (R11)(R11*2), R13
	SHRQ $2, R8
	SHRQ $2, R9
t2band:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ R9, CX
t2blk:
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R11*1), Y1
	VMOVUPD (AX)(R11*2), Y2
	VMOVUPD (AX)(R13*1), Y3
	TRANSPOSE4X4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R10*1)
	VMOVUPD Y2, (BX)(R10*2)
	VMOVUPD Y3, (BX)(R12*1)
	ADDQ $32, AX
	LEAQ (BX)(R10*4), BX
	DECQ CX
	JNZ  t2blk
	LEAQ (SI)(R11*4), SI
	ADDQ $32, DI
	DECQ R8
	JNZ  t2band
	VZEROUPPER
	RET

// SUMSQ4 is one block of sumSqLanesAVX2 for four vectors A–D (pointer
// registers) into the accumulator ACC, at byte offset AX. Two elements of
// each vector arrive already paired by 128-bit lane — A and C share one
// register, B and D the other, the upper halves inserted straight from
// memory, which costs no shuffle-port slot — so one unpack pair yields
// element k of all four vectors in lane order A, B, C, D. Y0–Y5 are
// clobbered.
#define SUMSQ4(A, B, C, D, ACC) \
	VMOVUPD     (A)(AX*1), X0;         \
	VINSERTF128 $1, (C)(AX*1), Y0, Y0; \ // a₀ a₁ | c₀ c₁
	VMOVUPD     (B)(AX*1), X1;         \
	VINSERTF128 $1, (D)(AX*1), Y1, Y1; \ // b₀ b₁ | d₀ d₁
	VUNPCKLPD   Y1, Y0, Y2;            \ // a₀ b₀ c₀ d₀
	VUNPCKHPD   Y1, Y0, Y3;            \ // a₁ b₁ c₁ d₁
	VMOVUPD     16(A)(AX*1), X0;       \
	VINSERTF128 $1, 16(C)(AX*1), Y0, Y0; \
	VMOVUPD     16(B)(AX*1), X1;       \
	VINSERTF128 $1, 16(D)(AX*1), Y1, Y1; \
	VUNPCKLPD   Y1, Y0, Y4;            \ // a₂ b₂ c₂ d₂
	VUNPCKHPD   Y1, Y0, Y5;            \ // a₃ b₃ c₃ d₃
	VMULPD      Y2, Y2, Y2;            \
	VMULPD      Y3, Y3, Y3;            \
	VMULPD      Y4, Y4, Y4;            \
	VMULPD      Y5, Y5, Y5;            \
	VADDPD      Y2, ACC, ACC;          \
	VADDPD      Y3, ACC, ACC;          \
	VADDPD      Y4, ACC, ACC;          \
	VADDPD      Y5, ACC, ACC

// func sumSqLanesAVX2(acc *[8]float64, ptrs *[8]*float64, nblk int, upper bool)
//
//	acc[l] += ptrs[l][k]²   for k = 0 … 4·nblk−1 in ascending order
//
// for l = 0 … 7, or l = 0 … 3 alone when upper is false (the longest
// vectors are taken first and so outlive the others in the lower lanes).
// Y14 carries the running sums of vectors 0–3, one per lane, Y15 those of
// vectors 4–7. A block is four elements of each vector: transposed on the
// way in so that a register holds element k of four vectors (SUMSQ4),
// squared there (one VMULPD per element index, every product rounded on its
// own), then added to the accumulator in four dependent VADDPDs, k
// ascending — per lane exactly the scalar loop's s += x·x. The add chains
// are the critical path; loads, shuffles and squares of the next block
// overlap them. The kernel serves the AVX-512 level too: a ZMM add has
// nearly twice the latency of a YMM add on the cores measured, which is the
// one thing a chain of dependent adds pays for (BENCH.md §17). nblk ≥ 1.
TEXT ·sumSqLanesAVX2(SB), NOSPLIT, $0-25
	MOVQ acc+0(FP), DI
	MOVQ ptrs+8(FP), SI
	MOVQ nblk+16(FP), CX
	MOVQ (SI), R8
	MOVQ 8(SI), R9
	MOVQ 16(SI), R10
	MOVQ 24(SI), R11
	XORQ AX, AX
	VMOVUPD (DI), Y14
	CMPB upper+24(FP), $0
	JEQ  s2lower
	MOVQ 32(SI), R12
	MOVQ 40(SI), R13
	MOVQ 48(SI), R14
	MOVQ 56(SI), R15
	VMOVUPD 32(DI), Y15
	PCALIGN $32
s2both:
	SUMSQ4(R8, R9, R10, R11, Y14)
	SUMSQ4(R12, R13, R14, R15, Y15)
	ADDQ $32, AX
	DECQ CX
	JNZ  s2both
	VMOVUPD Y15, 32(DI)
	JMP  s2done
	PCALIGN $32
s2lower:
	SUMSQ4(R8, R9, R10, R11, Y14)
	ADDQ $32, AX
	DECQ CX
	JNZ  s2lower
s2done:
	VMOVUPD Y14, (DI)
	VZEROUPPER
	RET

// func vecAddAVX512(dst, src *float64, n int)
// dst[i] += src[i] over n elements, n a positive multiple of 8.
TEXT ·vecAddAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
va5loop:
	VMOVUPD (DI)(AX*1), Z0
	VADDPD (SI)(AX*1), Z0, Z0
	VMOVUPD Z0, (DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, CX
	JLT  va5loop
	VZEROUPPER
	RET

// func vecAddAVX2(dst, src *float64, n int)
// The same on YMM registers; n is a positive multiple of 4.
TEXT ·vecAddAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
va2loop:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  va2loop
	VZEROUPPER
	RET
