// Fused kernels of one LSTM cell step, forward and backward, and of its
// window's weight gradients (see cell.go for the contracts). Like
// gemm_amd64.s they vectorise across output columns: every lane is one
// output's own accumulator, started at +0 and summed in the per-gate
// kernel's order with a separate VMULPD and VADDPD per term — never
// VFMADD — so each output is bit for bit the per-gate kernel's. What the
// fusion changes is only which sums run side by side: the four gates'
// column blocks share one pass, eight accumulators in flight, so a step is
// one call and one broadcast (or one zero test) serves four gates.
//
// Each kernel covers the columns in whole blocks of 16 per gate (two ZMM
// registers); the Go wrapper finishes the rest. Sixteen columns keep
// eight independent add chains busy, which measured as fast as 32 at the
// served shapes.

#include "textflag.h"

// MULADD2 adds B·(W)[0…16) to the accumulators A0, A1, B holding one
// value in every lane; T0 and T1 are clobbered.
#define MULADD2(W, B, A0, A1, T0, T1) \
	VMULPD (W), B, T0;       \
	VADDPD T0, A0, A0;       \
	VMULPD 64(W), B, T1;     \
	VADDPD T1, A1, A1

// ZERO8 clears the eight accumulators.
#define ZERO8 \
	VPXORQ Z0, Z0, Z0;       \
	VPXORQ Z1, Z1, Z1;       \
	VPXORQ Z2, Z2, Z2;       \
	VPXORQ Z3, Z3, Z3;       \
	VPXORQ Z4, Z4, Z4;       \
	VPXORQ Z5, Z5, Z5;       \
	VPXORQ Z6, Z6, Z6;       \
	VPXORQ Z7, Z7, Z7

// GATEPTRS points R8–R11 at byte offset R12 of the four gates' matrices,
// whose addresses are the four words at P.
#define GATEPTRS(P) \
	MOVQ 0(P), R8;           \
	ADDQ R12, R8;            \
	MOVQ 8(P), R9;           \
	ADDQ R12, R9;            \
	MOVQ 16(P), R10;         \
	ADDQ R12, R10;           \
	MOVQ 24(P), R11;         \
	ADDQ R12, R11

// NEXTROW moves R8–R11 on by one row of R15 bytes.
#define NEXTROW \
	ADDQ R15, R8;            \
	ADDQ R15, R9;            \
	ADDQ R15, R10;           \
	ADDQ R15, R11

// func gatesGEMVAVX512(pre, x *float64, w, b *[4]*float64, n, m int)
//
//	pre[g·m + j] = (Σ_k x[k]·w_g[k·m + j]) + b_g[j]   k = 0 … n−1 ascending
//
// for the four gates g and j < m&^15: the bias is added to the finished
// sum, as GEMVBiasInto's separate pass adds it. w_g are row-major n×m,
// n ≥ 1.
TEXT ·gatesGEMVAVX512(SB), NOSPLIT, $0-48
	MOVQ pre+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ b+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ m+40(FP), R13
	MOVQ R13, R15
	SHLQ $3, R15           // row stride of w_g and gate stride of pre, bytes
	ANDQ $-16, R13
	SHLQ $3, R13           // the columns the kernel covers, bytes
	XORQ R12, R12          // column offset, bytes
gfblock:
	CMPQ R12, R13
	JGE  gfdone
	ZERO8
	GATEPTRS(DX)
	XORQ R14, R14
	PCALIGN $32
gfk:
	VBROADCASTSD (SI)(R14*8), Z16
	MULADD2(R8, Z16, Z0, Z1, Z17, Z18)
	MULADD2(R9, Z16, Z2, Z3, Z19, Z20)
	MULADD2(R10, Z16, Z4, Z5, Z21, Z22)
	MULADD2(R11, Z16, Z6, Z7, Z23, Z24)
	NEXTROW
	INCQ R14
	CMPQ R14, CX
	JNE  gfk
	LEAQ (DI)(R12*1), AX
	MOVQ 0(BX), R14
	ADDQ R12, R14
	VADDPD (R14), Z0, Z0
	VADDPD 64(R14), Z1, Z1
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 64(AX)
	ADDQ R15, AX
	MOVQ 8(BX), R14
	ADDQ R12, R14
	VADDPD (R14), Z2, Z2
	VADDPD 64(R14), Z3, Z3
	VMOVUPD Z2, (AX)
	VMOVUPD Z3, 64(AX)
	ADDQ R15, AX
	MOVQ 16(BX), R14
	ADDQ R12, R14
	VADDPD (R14), Z4, Z4
	VADDPD 64(R14), Z5, Z5
	VMOVUPD Z4, (AX)
	VMOVUPD Z5, 64(AX)
	ADDQ R15, AX
	MOVQ 24(BX), R14
	ADDQ R12, R14
	VADDPD (R14), Z6, Z6
	VADDPD 64(R14), Z7, Z7
	VMOVUPD Z6, (AX)
	VMOVUPD Z7, 64(AX)
	ADDQ $128, R12
	JMP  gfblock
gfdone:
	VZEROUPPER
	RET

// func gatesGEMVTAVX512(dst, dpre *float64, wt *[4]*float64, h, c int)
//
//	dst[j] = ((S₃[j] + S₂[j]) + S₁[j]) + S₀[j]
//	S_g[j] = Σ_k dpre[g·h + k]·wt_g[k·c + j]   k = 0 … h−1 ascending
//
// for j < c&^15: the input gradient of one backward step, Σ_g dpre_g·W_gᵀ,
// with each gate's product a complete sum before it is added, in the order
// o, c, f, i — the order of the per-gate calls it replaces. wt_g are
// row-major h×c, h ≥ 1.
TEXT ·gatesGEMVTAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ dpre+8(FP), SI
	MOVQ wt+16(FP), DX
	MOVQ h+24(FP), CX
	MOVQ c+32(FP), R13
	MOVQ R13, R15
	SHLQ $3, R15           // row stride of wt_g, bytes
	ANDQ $-16, R13
	SHLQ $3, R13
	LEAQ (SI)(CX*8), AX    // dpre_f
	LEAQ (AX)(CX*8), BX    // dpre_c
	XORQ R12, R12
gbblock:
	CMPQ R12, R13
	JGE  gbdone
	ZERO8
	GATEPTRS(DX)
	LEAQ (BX)(CX*8), DX    // dpre_o; wt is reloaded after the pass
	XORQ R14, R14
	PCALIGN $32
gbk:
	VBROADCASTSD (SI)(R14*8), Z16
	VBROADCASTSD (AX)(R14*8), Z17
	VBROADCASTSD (BX)(R14*8), Z18
	VBROADCASTSD (DX)(R14*8), Z19
	MULADD2(R8, Z16, Z0, Z1, Z20, Z21)
	MULADD2(R9, Z17, Z2, Z3, Z22, Z23)
	MULADD2(R10, Z18, Z4, Z5, Z24, Z25)
	MULADD2(R11, Z19, Z6, Z7, Z26, Z27)
	NEXTROW
	INCQ R14
	CMPQ R14, CX
	JNE  gbk
	MOVQ wt+16(FP), DX
	VADDPD Z4, Z6, Z6      // o + c
	VADDPD Z2, Z6, Z6      // + f
	VADDPD Z0, Z6, Z6      // + i
	VADDPD Z5, Z7, Z7
	VADDPD Z3, Z7, Z7
	VADDPD Z1, Z7, Z7
	VMOVUPD Z6, (DI)(R12*1)
	VMOVUPD Z7, 64(DI)(R12*1)
	ADDQ $128, R12
	JMP  gbblock
gbdone:
	VZEROUPPER
	RET

// func gatesATStepsAVX512(dw *[4]*float64, a, b *float64, n, m, steps int)
//
//	dw_g[k·m + j] = Σ_t a[t·n + k]·b[t·4m + g·m + j]   t = steps−1 … 0, a == ±0 skipped
//
// for the four gates g and j < m&^15: the four weight gradients of one
// cell over a BPTT window, as four atStepsAVX512 calls compute them — each
// element one accumulator from +0, its terms in descending t, a zero
// context word skipped — with one test and one broadcast of a[t][k] for
// all four gates. n and steps are ≥ 1.
TEXT ·gatesATStepsAVX512(SB), NOSPLIT, $0-48
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), R8
	MOVQ m+32(FP), R9
	MOVQ steps+40(FP), R11
	MOVQ R9, R13
	ANDQ $-16, R13
	SHLQ $3, R13           // the columns the kernel covers, bytes
	SHLQ $3, R9            // dw_g row stride and gate stride in b, bytes
	LEAQ (R9*4), R10       // b row stride in bytes
	MOVQ R8, R14
	SHLQ $3, R14           // a row stride in bytes
	MOVQ R11, AX           // start both operands at their LAST step's row
	DECQ AX
	MOVQ AX, BX
	IMULQ R14, AX
	ADDQ AX, SI
	IMULQ R10, BX
	ADDQ BX, DX
	XORQ DI, DI            // dw row offset in bytes
garow:
	XORQ R12, R12          // column offset in bytes
gablock:
	CMPQ R12, R13
	JGE  ganext
	ZERO8
	MOVQ SI, CX            // &a[steps−1][k]
	LEAQ (DX)(R12*1), BX   // &b[steps−1][j] of gate 0
	MOVQ R11, R15
	PCALIGN $32
gat:
	MOVQ (CX), AX
	ADDQ AX, AX            // shifts the sign out: ZF ⇔ a == ±0
	JZ   gaskip
	VBROADCASTSD (CX), Z16
	MULADD2(BX, Z16, Z0, Z1, Z17, Z18)
	LEAQ (BX)(R9*1), AX
	MULADD2(AX, Z16, Z2, Z3, Z19, Z20)
	ADDQ R9, AX
	MULADD2(AX, Z16, Z4, Z5, Z21, Z22)
	ADDQ R9, AX
	MULADD2(AX, Z16, Z6, Z7, Z23, Z24)
gaskip:
	SUBQ R14, CX
	SUBQ R10, BX
	DECQ R15
	JNZ  gat
	MOVQ dw+0(FP), CX
	MOVQ 0(CX), AX
	ADDQ DI, AX
	VMOVUPD Z0, (AX)(R12*1)
	VMOVUPD Z1, 64(AX)(R12*1)
	MOVQ 8(CX), AX
	ADDQ DI, AX
	VMOVUPD Z2, (AX)(R12*1)
	VMOVUPD Z3, 64(AX)(R12*1)
	MOVQ 16(CX), AX
	ADDQ DI, AX
	VMOVUPD Z4, (AX)(R12*1)
	VMOVUPD Z5, 64(AX)(R12*1)
	MOVQ 24(CX), AX
	ADDQ DI, AX
	VMOVUPD Z6, (AX)(R12*1)
	VMOVUPD Z7, 64(AX)(R12*1)
	ADDQ $128, R12
	JMP  gablock
ganext:
	ADDQ R9, DI
	ADDQ $8, SI
	DECQ R8
	JNZ  garow
	VZEROUPPER
	RET
