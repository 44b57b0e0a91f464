// SIMD kernels of the tape-free training engine (see train.go for the
// contracts and the bit-identity argument). As in gemm_amd64.s, vector
// lanes are always distinct output elements and every product is rounded
// by its own VMULPD before the VADDPD — never VFMADD. The hot loops are
// PCALIGNed: the scalar kernels they replace moved 11 % on a relink that
// only shifted their loop heads across a fetch boundary (BENCH.md §11).

#include "textflag.h"

// func atStepsAVX512(dst, a, b *float64, n, m, ldb, steps int)
//
//	dst[k*m+j] += Σ_t a[t*n+k]·b[t*ldb+j]   t = steps−1 … 0, a == ±0 skipped
//
// for j < m&^7 (the Go wrapper finishes the column tail). One dst row at a
// time, its columns held in registers across the whole time loop, so each
// gradient element is loaded and stored once per window instead of once
// per step. n, m&^7 and steps are ≥ 1.
TEXT ·atStepsAVX512(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), R8
	MOVQ m+32(FP), R9
	MOVQ ldb+40(FP), R10
	MOVQ steps+48(FP), R11
	MOVQ R9, R13
	ANDQ $-8, R13
	SHLQ $3, R13           // vectorised columns, in bytes
	SHLQ $3, R9            // dst row stride in bytes
	SHLQ $3, R10           // b row stride in bytes
	MOVQ R8, R14
	SHLQ $3, R14           // a row stride in bytes
	MOVQ R11, AX           // start both operands at their LAST step's row
	DECQ AX
	MOVQ AX, BX
	IMULQ R14, AX
	ADDQ AX, SI
	IMULQ R10, BX
	ADDQ BX, DX
z5row:
	XORQ R12, R12          // column offset in bytes
z5j32:
	LEAQ 256(R12), AX
	CMPQ AX, R13
	JG   z5j16
	VMOVUPD (DI)(R12*1), Z0
	VMOVUPD 64(DI)(R12*1), Z1
	VMOVUPD 128(DI)(R12*1), Z2
	VMOVUPD 192(DI)(R12*1), Z3
	MOVQ SI, CX            // &a[steps-1][k]
	LEAQ (DX)(R12*1), BX   // &b[steps-1][j]
	MOVQ R11, R15
	PCALIGN $32
z5t32:
	MOVQ (CX), AX
	ADDQ AX, AX            // shifts the sign out: ZF ⇔ a == ±0
	JZ   z5s32
	VBROADCASTSD (CX), Z4
	VMULPD (BX), Z4, Z5
	VADDPD Z5, Z0, Z0
	VMULPD 64(BX), Z4, Z6
	VADDPD Z6, Z1, Z1
	VMULPD 128(BX), Z4, Z7
	VADDPD Z7, Z2, Z2
	VMULPD 192(BX), Z4, Z8
	VADDPD Z8, Z3, Z3
z5s32:
	SUBQ R14, CX
	SUBQ R10, BX
	DECQ R15
	JNZ  z5t32
	VMOVUPD Z0, (DI)(R12*1)
	VMOVUPD Z1, 64(DI)(R12*1)
	VMOVUPD Z2, 128(DI)(R12*1)
	VMOVUPD Z3, 192(DI)(R12*1)
	ADDQ $256, R12
	JMP  z5j32
z5j16:
	LEAQ 128(R12), AX
	CMPQ AX, R13
	JG   z5j8
	VMOVUPD (DI)(R12*1), Z0
	VMOVUPD 64(DI)(R12*1), Z1
	MOVQ SI, CX
	LEAQ (DX)(R12*1), BX
	MOVQ R11, R15
	PCALIGN $32
z5t16:
	MOVQ (CX), AX
	ADDQ AX, AX
	JZ   z5s16
	VBROADCASTSD (CX), Z4
	VMULPD (BX), Z4, Z5
	VADDPD Z5, Z0, Z0
	VMULPD 64(BX), Z4, Z6
	VADDPD Z6, Z1, Z1
z5s16:
	SUBQ R14, CX
	SUBQ R10, BX
	DECQ R15
	JNZ  z5t16
	VMOVUPD Z0, (DI)(R12*1)
	VMOVUPD Z1, 64(DI)(R12*1)
	ADDQ $128, R12
	JMP  z5j16
z5j8:
	LEAQ 64(R12), AX
	CMPQ AX, R13
	JG   z5next
	VMOVUPD (DI)(R12*1), Z0
	MOVQ SI, CX
	LEAQ (DX)(R12*1), BX
	MOVQ R11, R15
	PCALIGN $32
z5t8:
	MOVQ (CX), AX
	ADDQ AX, AX
	JZ   z5s8
	VBROADCASTSD (CX), Z4
	VMULPD (BX), Z4, Z5
	VADDPD Z5, Z0, Z0
z5s8:
	SUBQ R14, CX
	SUBQ R10, BX
	DECQ R15
	JNZ  z5t8
	VMOVUPD Z0, (DI)(R12*1)
	ADDQ $64, R12
	JMP  z5j8
z5next:
	ADDQ R9, DI
	ADDQ $8, SI
	DECQ R8
	JNZ  z5row
	VZEROUPPER
	RET

// func atStepsAVX2(dst, a, b *float64, n, m, ldb, steps int)
// The same kernel on YMM registers: column blocks of 16/8/4, tail beyond
// m&^3 left to the wrapper.
TEXT ·atStepsAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), R8
	MOVQ m+32(FP), R9
	MOVQ ldb+40(FP), R10
	MOVQ steps+48(FP), R11
	MOVQ R9, R13
	ANDQ $-4, R13
	SHLQ $3, R13
	SHLQ $3, R9
	SHLQ $3, R10
	MOVQ R8, R14
	SHLQ $3, R14
	MOVQ R11, AX
	DECQ AX
	MOVQ AX, BX
	IMULQ R14, AX
	ADDQ AX, SI
	IMULQ R10, BX
	ADDQ BX, DX
y2row:
	XORQ R12, R12
y2j16:
	LEAQ 128(R12), AX
	CMPQ AX, R13
	JG   y2j8
	VMOVUPD (DI)(R12*1), Y0
	VMOVUPD 32(DI)(R12*1), Y1
	VMOVUPD 64(DI)(R12*1), Y2
	VMOVUPD 96(DI)(R12*1), Y3
	MOVQ SI, CX
	LEAQ (DX)(R12*1), BX
	MOVQ R11, R15
	PCALIGN $32
y2t16:
	MOVQ (CX), AX
	ADDQ AX, AX
	JZ   y2s16
	VBROADCASTSD (CX), Y4
	VMULPD (BX), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(BX), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(BX), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(BX), Y4, Y8
	VADDPD Y8, Y3, Y3
y2s16:
	SUBQ R14, CX
	SUBQ R10, BX
	DECQ R15
	JNZ  y2t16
	VMOVUPD Y0, (DI)(R12*1)
	VMOVUPD Y1, 32(DI)(R12*1)
	VMOVUPD Y2, 64(DI)(R12*1)
	VMOVUPD Y3, 96(DI)(R12*1)
	ADDQ $128, R12
	JMP  y2j16
y2j8:
	LEAQ 64(R12), AX
	CMPQ AX, R13
	JG   y2j4
	VMOVUPD (DI)(R12*1), Y0
	VMOVUPD 32(DI)(R12*1), Y1
	MOVQ SI, CX
	LEAQ (DX)(R12*1), BX
	MOVQ R11, R15
	PCALIGN $32
y2t8:
	MOVQ (CX), AX
	ADDQ AX, AX
	JZ   y2s8
	VBROADCASTSD (CX), Y4
	VMULPD (BX), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(BX), Y4, Y6
	VADDPD Y6, Y1, Y1
y2s8:
	SUBQ R14, CX
	SUBQ R10, BX
	DECQ R15
	JNZ  y2t8
	VMOVUPD Y0, (DI)(R12*1)
	VMOVUPD Y1, 32(DI)(R12*1)
	ADDQ $64, R12
	JMP  y2j8
y2j4:
	LEAQ 32(R12), AX
	CMPQ AX, R13
	JG   y2next
	VMOVUPD (DI)(R12*1), Y0
	MOVQ SI, CX
	LEAQ (DX)(R12*1), BX
	MOVQ R11, R15
	PCALIGN $32
y2t4:
	MOVQ (CX), AX
	ADDQ AX, AX
	JZ   y2s4
	VBROADCASTSD (CX), Y4
	VMULPD (BX), Y4, Y5
	VADDPD Y5, Y0, Y0
y2s4:
	SUBQ R14, CX
	SUBQ R10, BX
	DECQ R15
	JNZ  y2t4
	VMOVUPD Y0, (DI)(R12*1)
	ADDQ $32, R12
	JMP  y2j4
y2next:
	ADDQ R9, DI
	ADDQ $8, SI
	DECQ R8
	JNZ  y2row
	VZEROUPPER
	RET

// func adamAVX512(p, m, v, grad *float64, n int, c *AdamCoef)
// One Adam update over n elements (n a positive multiple of 8); see
// AdamInto for the formula. The operation sequence and association match
// the scalar loop term for term; VDIVPD and VSQRTPD are correctly rounded.
// The loop is bound by the divider (three VDIVPD and a VSQRTPD per vector),
// so the one division that can be dropped exactly is: bc₁ = 1 − β₁ᵗ is
// 1.0 from t ≈ 350 on, and x/1 = x for every x.
TEXT ·adamAVX512(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ c+40(FP), AX
	VBROADCASTSD (AX), Z16     // GradScale
	VBROADCASTSD 8(AX), Z17    // β₁
	VBROADCASTSD 16(AX), Z18   // 1−β₁
	VBROADCASTSD 24(AX), Z19   // β₂
	VBROADCASTSD 32(AX), Z20   // 1−β₂
	VBROADCASTSD 40(AX), Z21   // bc₁
	VBROADCASTSD 48(AX), Z22   // bc₂
	VBROADCASTSD 56(AX), Z23   // LR
	VBROADCASTSD 64(AX), Z24   // ε
	MOVQ 40(AX), R8
	MOVQ $0x3FF0000000000000, R9
	XORQ R9, R8                // R8 == 0 ⇔ bc₁ is exactly 1.0
	SHRQ $3, CX
	PCALIGN $32
a5loop:
	VMULPD (BX), Z16, Z0       // gᵢ = g·scale
	VMULPD (SI), Z17, Z1       // β₁·m
	VMULPD Z0, Z18, Z2         // (1−β₁)·gᵢ
	VADDPD Z2, Z1, Z1          // m'
	VMOVUPD Z1, (SI)
	VMULPD (DX), Z19, Z3       // β₂·v
	VMULPD Z0, Z20, Z4         // (1−β₂)·gᵢ
	VMULPD Z0, Z4, Z4          // ·gᵢ
	VADDPD Z4, Z3, Z3          // v'
	VMOVUPD Z3, (DX)
	TESTQ R8, R8
	JZ   a5mhat
	VDIVPD Z21, Z1, Z1         // m̂ = m'/bc₁
a5mhat:
	VDIVPD Z22, Z3, Z3         // v̂ = v'/bc₂
	VMULPD Z1, Z23, Z1         // LR·m̂
	VSQRTPD Z3, Z3
	VADDPD Z24, Z3, Z3         // √v̂ + ε
	VDIVPD Z3, Z1, Z1
	VMOVUPD (DI), Z5
	VSUBPD Z1, Z5, Z5          // p − step
	VMOVUPD Z5, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, BX
	DECQ CX
	JNZ  a5loop
	VZEROUPPER
	RET

// func adamAVX2(p, m, v, grad *float64, n int, c *AdamCoef)
// The same update on YMM registers; n is a positive multiple of 4.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ c+40(FP), AX
	VBROADCASTSD (AX), Y6
	VBROADCASTSD 8(AX), Y7
	VBROADCASTSD 16(AX), Y8
	VBROADCASTSD 24(AX), Y9
	VBROADCASTSD 32(AX), Y10
	VBROADCASTSD 40(AX), Y11
	VBROADCASTSD 48(AX), Y12
	VBROADCASTSD 56(AX), Y13
	VBROADCASTSD 64(AX), Y14
	MOVQ 40(AX), R8
	MOVQ $0x3FF0000000000000, R9
	XORQ R9, R8
	SHRQ $2, CX
	PCALIGN $32
a2loop:
	VMULPD (BX), Y6, Y0
	VMULPD (SI), Y7, Y1
	VMULPD Y0, Y8, Y2
	VADDPD Y2, Y1, Y1
	VMOVUPD Y1, (SI)
	VMULPD (DX), Y9, Y3
	VMULPD Y0, Y10, Y4
	VMULPD Y0, Y4, Y4
	VADDPD Y4, Y3, Y3
	VMOVUPD Y3, (DX)
	TESTQ R8, R8
	JZ   a2mhat
	VDIVPD Y11, Y1, Y1
a2mhat:
	VDIVPD Y12, Y3, Y3
	VMULPD Y1, Y13, Y1
	VSQRTPD Y3, Y3
	VADDPD Y14, Y3, Y3
	VDIVPD Y3, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, BX
	DECQ CX
	JNZ  a2loop
	VZEROUPPER
	RET
