// SIMD forward-GEMM kernels for the batched inference path. Both kernels
// compute, for every lane l and output column j,
//
//	dst[l*ld+j] = Σ_k x[l*n+k] · w[k*m+j]   (k strictly ascending)
//
// with one register accumulator per (l, j) and separate VMULPD/VADDPD
// instructions — never VFMADD — so every product is rounded to float64
// before its add, exactly like the scalar kernels (MatMulTo, VecMatTTo).
// Vector lanes map to *output columns*, each holding its own ascending-k
// sum, so the result is bit-identical to the scalar path (pinned by
// TestFwdGEMMSIMDMatchesPortable).
//
// w is the ROW-MAJOR n×m weight (row k = all m outputs at context k),
// which is what makes the column-vectorised load w[k][j..j+7] contiguous.
// dst rows are ld ≥ m elements apart, and only their first m columns are
// written: one LSTM gate's GEMM fills its column block of the packed
// preactivation row in place.
// Column blocks are 32/16/8 (AVX-512) and 16/8/4 (AVX2) wide; at the
// widest block each accumulator receives one add per 4+ issue cycles,
// hiding the VADDPD latency chain. Columns beyond m&^7 (m&^3 for AVX2)
// are left untouched; the Go wrapper computes that tail with the scalar
// loop.

#include "textflag.h"

// func gemmRowMajorAVX512(dst, x, w *float64, lanes, n, m, ld int)
//
// Loop order is column-block outer, lane inner: a 32-column weight panel
// (n rows × 256 B ≈ 24 KiB at the CLSTM shape) is re-read for every lane
// while still L1/L2-hot, so batching lanes amortises the weight traffic
// that dominates a single GEMV. The per-(lane, column) accumulation is an
// independent ascending-k sum regardless of loop order, so this changes
// which sums run concurrently, never any sum's bits.
TEXT ·gemmRowMajorAVX512(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ lanes+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ m+40(FP), R10
	MOVQ R10, R11
	ANDQ $-8, R11          // mAsm = m &^ 7
	MOVQ R10, R15
	SHLQ $3, R15           // w row stride in bytes = m*8
	MOVQ ld+48(FP), R14
	SHLQ $3, R14           // dst lane stride in bytes = ld*8
	TESTQ R9, R9
	JZ   z512done
	XORQ R12, R12          // j = 0
z512j32:
	LEAQ 32(R12), AX
	CMPQ AX, R11
	JG   z512j16
	MOVQ R8, R10           // lane countdown
	MOVQ SI, CX            // &x[0][0]
	LEAQ (DI)(R12*8), AX   // &dst[0][j]
z512l32:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	LEAQ (DX)(R12*8), BX   // &w[0][j]
	XORQ R13, R13          // k
z512k32:
	VBROADCASTSD (CX)(R13*8), Z4
	VMULPD (BX), Z4, Z5
	VADDPD Z5, Z0, Z0
	VMULPD 64(BX), Z4, Z6
	VADDPD Z6, Z1, Z1
	VMULPD 128(BX), Z4, Z7
	VADDPD Z7, Z2, Z2
	VMULPD 192(BX), Z4, Z8
	VADDPD Z8, Z3, Z3
	ADDQ R15, BX
	INCQ R13
	CMPQ R13, R9
	JNE  z512k32
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 64(AX)
	VMOVUPD Z2, 128(AX)
	VMOVUPD Z3, 192(AX)
	LEAQ (CX)(R9*8), CX    // next lane's x row
	ADDQ R14, AX           // next lane's dst row
	DECQ R10
	JNZ  z512l32
	ADDQ $32, R12
	JMP  z512j32
z512j16:
	LEAQ 16(R12), AX
	CMPQ AX, R11
	JG   z512j8
	MOVQ R8, R10
	MOVQ SI, CX
	LEAQ (DI)(R12*8), AX
z512l16:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	LEAQ (DX)(R12*8), BX
	XORQ R13, R13
z512k16:
	VBROADCASTSD (CX)(R13*8), Z4
	VMULPD (BX), Z4, Z5
	VADDPD Z5, Z0, Z0
	VMULPD 64(BX), Z4, Z6
	VADDPD Z6, Z1, Z1
	ADDQ R15, BX
	INCQ R13
	CMPQ R13, R9
	JNE  z512k16
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 64(AX)
	LEAQ (CX)(R9*8), CX
	ADDQ R14, AX
	DECQ R10
	JNZ  z512l16
	ADDQ $16, R12
	JMP  z512j16
z512j8:
	LEAQ 8(R12), AX
	CMPQ AX, R11
	JG   z512done
	MOVQ R8, R10
	MOVQ SI, CX
	LEAQ (DI)(R12*8), AX
z512l8:
	VPXORQ Z0, Z0, Z0
	LEAQ (DX)(R12*8), BX
	XORQ R13, R13
z512k8:
	VBROADCASTSD (CX)(R13*8), Z4
	VMULPD (BX), Z4, Z5
	VADDPD Z5, Z0, Z0
	ADDQ R15, BX
	INCQ R13
	CMPQ R13, R9
	JNE  z512k8
	VMOVUPD Z0, (AX)
	LEAQ (CX)(R9*8), CX
	ADDQ R14, AX
	DECQ R10
	JNZ  z512l8
	ADDQ $8, R12
	JMP  z512j8
z512done:
	VZEROUPPER
	RET

// func gemmRowMajorAVX2(dst, x, w *float64, lanes, n, m, ld int)
TEXT ·gemmRowMajorAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ lanes+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ m+40(FP), R10
	MOVQ R10, R11
	ANDQ $-4, R11          // mAsm = m &^ 3
	MOVQ R10, R15
	SHLQ $3, R15           // w row stride in bytes = m*8
	MOVQ ld+48(FP), R14
	SHLQ $3, R14           // dst lane stride in bytes = ld*8
	TESTQ R9, R9
	JZ   y2done
y2lane:
	TESTQ R8, R8
	JZ   y2done
	XORQ R12, R12
y2j16:
	LEAQ 16(R12), AX
	CMPQ AX, R11
	JG   y2j8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (DX)(R12*8), BX
	MOVQ SI, CX
	MOVQ R9, R13
y2k16:
	VBROADCASTSD (CX), Y4
	VMULPD (BX), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(BX), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(BX), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(BX), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $8, CX
	ADDQ R15, BX
	DECQ R13
	JNZ  y2k16
	VMOVUPD Y0, (DI)(R12*8)
	VMOVUPD Y1, 32(DI)(R12*8)
	VMOVUPD Y2, 64(DI)(R12*8)
	VMOVUPD Y3, 96(DI)(R12*8)
	ADDQ $16, R12
	JMP  y2j16
y2j8:
	LEAQ 8(R12), AX
	CMPQ AX, R11
	JG   y2j4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	LEAQ (DX)(R12*8), BX
	MOVQ SI, CX
	MOVQ R9, R13
y2k8:
	VBROADCASTSD (CX), Y4
	VMULPD (BX), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(BX), Y4, Y6
	VADDPD Y6, Y1, Y1
	ADDQ $8, CX
	ADDQ R15, BX
	DECQ R13
	JNZ  y2k8
	VMOVUPD Y0, (DI)(R12*8)
	VMOVUPD Y1, 32(DI)(R12*8)
	ADDQ $8, R12
	JMP  y2j8
y2j4:
	LEAQ 4(R12), AX
	CMPQ AX, R11
	JG   y2lanenext
	VXORPD Y0, Y0, Y0
	LEAQ (DX)(R12*8), BX
	MOVQ SI, CX
	MOVQ R9, R13
y2k4:
	VBROADCASTSD (CX), Y4
	VMULPD (BX), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $8, CX
	ADDQ R15, BX
	DECQ R13
	JNZ  y2k4
	VMOVUPD Y0, (DI)(R12*8)
	ADDQ $4, R12
	JMP  y2j4
y2lanenext:
	ADDQ R14, DI
	LEAQ (SI)(R9*8), SI
	DECQ R8
	JMP  y2lane
y2done:
	VZEROUPPER
	RET

DATA one64<>+0(SB)/8, $1.0
GLOBL one64<>(SB), RODATA|NOPTR, $8

// func vecRecip1pAVX512(v *float64, n int)
// In-place v[i] = 1/(1+v[i]); n is a multiple of 8. VADDPD and the
// correctly-rounded VDIVPD are elementwise IEEE ops, so results match the
// scalar loop bit for bit.
TEXT ·vecRecip1pAVX512(SB), NOSPLIT, $0-16
	MOVQ v+0(FP), AX
	MOVQ n+8(FP), CX
	SHRQ $3, CX
	JZ   r512done
	VBROADCASTSD one64<>(SB), Z1
r512loop:
	VMOVUPD (AX), Z2
	VADDPD Z2, Z1, Z2      // 1 + v
	VDIVPD Z2, Z1, Z2      // 1 / (1 + v)
	VMOVUPD Z2, (AX)
	ADDQ $64, AX
	DECQ CX
	JNZ  r512loop
r512done:
	VZEROUPPER
	RET

// func vecRecip1pAVX2(v *float64, n int)
// In-place v[i] = 1/(1+v[i]); n is a multiple of 4.
TEXT ·vecRecip1pAVX2(SB), NOSPLIT, $0-16
	MOVQ v+0(FP), AX
	MOVQ n+8(FP), CX
	SHRQ $2, CX
	JZ   r2done
	VBROADCASTSD one64<>(SB), Y1
r2loop:
	VMOVUPD (AX), Y2
	VADDPD Y2, Y1, Y2
	VDIVPD Y2, Y1, Y2
	VMOVUPD Y2, (AX)
	ADDQ $32, AX
	DECQ CX
	JNZ  r2loop
r2done:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
