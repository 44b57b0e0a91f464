//go:build amd64

#include "textflag.h"

// Exact transcendental kernels: math.Exp and math.Tanh, eight (AVX-512) or
// four (AVX2) operands per instruction, bit for bit.
//
// On amd64 math.Exp is the assembly routine math.archExp
// ($GOROOT/src/math/exp_amd64.s) — Shibata's branch-free SIMD-suitable
// algorithm run on one lane — and math.Tanh is the compiled Go function
// math.tanh: a rational function below |x| = 0.625 and 1 − 2/(exp(2|x|)+1)
// above it, no FMA (GOAMD64=v1 never contracts). EXACTEXP below is
// archExp's FMA path (the one it takes when the CPU has AVX and FMA; the
// dispatch in exact_amd64.go refuses these kernels otherwise) instruction
// for instruction: the same constants written with the same decimal
// literals, the same round-to-nearest-even CVTPD2DQ, the same fused and
// unfused operations in the same order. Every operation is elementwise and
// correctly rounded, so a lane computes exactly what the scalar routine
// computes for that operand.
//
// What the scalar routines do with branches happens here in two ways. The
// branches that only edge operands take — overflow, the subnormal tail,
// NaN and ±Inf — are not ported: a block with any lane outside |x| ≤ 700
// stops the kernel, which returns how many elements it finished, and the
// caller gives that block to math.Exp / math.Tanh. Inside the guard exp's
// biased exponent lies in [13, 2033], so archExp's ldexp is its plain
// shift-and-multiply. The branches every operand chooses between —
// tanh's rational / exponential / saturated / zero cases — are all
// computed and blended by mask.
//
// The AVX-512 kernels stay inside AVX512F, like the rest of the package.

// archExp's constants, decimal literal for decimal literal.
DATA exactc<>+0(SB)/8, $1.4426950408889634073599246810018920               // LOG2E
DATA exactc<>+8(SB)/8, $0.69314718055966295651160180568695068359375        // LN2U
DATA exactc<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA exactc<>+24(SB)/8, $0.0625
DATA exactc<>+32(SB)/8, $2.4801587301587301587e-5
DATA exactc<>+40(SB)/8, $1.9841269841269841270e-4
DATA exactc<>+48(SB)/8, $1.3888888888888888889e-3
DATA exactc<>+56(SB)/8, $8.3333333333333333333e-3
DATA exactc<>+64(SB)/8, $4.1666666666666666667e-2
DATA exactc<>+72(SB)/8, $1.6666666666666666667e-1
DATA exactc<>+80(SB)/8, $0.5
DATA exactc<>+88(SB)/8, $1.0
DATA exactc<>+96(SB)/8, $2.0
DATA exactc<>+104(SB)/8, $1023                                             // exponent bias, an integer lane
// math.tanh's: P and Q, the 0.625 branch point and 0.5·MAXLOG.
DATA exactc<>+112(SB)/8, $-9.64399179425052238628e-1
DATA exactc<>+120(SB)/8, $-9.92877231001918586564e1
DATA exactc<>+128(SB)/8, $-1.61468768441708447952e3
DATA exactc<>+136(SB)/8, $1.12811678491632931402e2
DATA exactc<>+144(SB)/8, $2.23548839060100448583e3
DATA exactc<>+152(SB)/8, $4.84406305325125486048e3
DATA exactc<>+160(SB)/8, $0.625
DATA exactc<>+168(SB)/8, $4.4014845965556527147994e+01
// The guard, and the two bit masks.
DATA exactc<>+176(SB)/8, $700.0
DATA exactc<>+184(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA exactc<>+192(SB)/8, $0x8000000000000000
GLOBL exactc<>(SB), RODATA|NOPTR, $200

#define cLog2E   exactc<>+0(SB)
#define cLn2U    exactc<>+8(SB)
#define cLn2L    exactc<>+16(SB)
#define cSixteenth exactc<>+24(SB)
#define cE8      exactc<>+32(SB)
#define cE7      exactc<>+40(SB)
#define cE6      exactc<>+48(SB)
#define cE5      exactc<>+56(SB)
#define cE4      exactc<>+64(SB)
#define cE3      exactc<>+72(SB)
#define cHalf    exactc<>+80(SB)
#define cOne     exactc<>+88(SB)
#define cTwo     exactc<>+96(SB)
#define cBias    exactc<>+104(SB)
#define cP0      exactc<>+112(SB)
#define cP1      exactc<>+120(SB)
#define cP2      exactc<>+128(SB)
#define cQ0      exactc<>+136(SB)
#define cQ1      exactc<>+144(SB)
#define cQ2      exactc<>+152(SB)
#define cBranch  exactc<>+160(SB)
#define cSat     exactc<>+168(SB)
#define cGuard   exactc<>+176(SB)
#define cAbs     exactc<>+184(SB)
#define cSign    exactc<>+192(SB)

// One fused Horner step P = X·P + c, archExp's VFMADD213SD c, X0, X1.
#define EXPSTEP(X, P, T, c) \
	VBROADCASTSD c, T; VFMADD213PD T, X, P

// EXACTEXP replaces X with exp(X), |X| ≤ 700, as archExp's FMA path
// computes it. CVT is the packed double → int32 conversion for the
// register width and KH the half-width register it fills; K, P and T are
// clobbered. Written for Y and for Z registers alike: every instruction is
// legal in AVX2+FMA and in AVX512F.
#define EXACTEXP(X, CVT, KH, K, P, T) \
	VBROADCASTSD cLog2E, T;      \
	VMULPD       X, T, T;        \
	CVT          T, KH;          \ // k = round-to-even(x·log₂e)
	VCVTDQ2PD    KH, P;          \
	VBROADCASTSD cLn2U, T;       \
	VFNMADD231PD T, P, X;        \ // x −= k·LN2U
	VBROADCASTSD cLn2L, T;       \
	VFNMADD231PD T, P, X;        \ // x −= k·LN2L
	VBROADCASTSD cSixteenth, T;  \
	VMULPD       T, X, X;        \ // x /= 16
	VBROADCASTSD cE8, P;         \
	EXPSTEP(X, P, T, cE7);       \
	EXPSTEP(X, P, T, cE6);       \
	EXPSTEP(X, P, T, cE5);       \
	EXPSTEP(X, P, T, cE4);       \
	EXPSTEP(X, P, T, cE3);       \
	EXPSTEP(X, P, T, cHalf);     \
	EXPSTEP(X, P, T, cOne);      \
	VMULPD       P, X, X;        \ // y = e^x − 1
	VBROADCASTSD cTwo, T;        \
	VADDPD       T, X, P;        \ // four squarings of 1+y as y ← y·(y+2)
	VMULPD       P, X, X;        \
	VADDPD       T, X, P;        \
	VMULPD       P, X, X;        \
	VADDPD       T, X, P;        \
	VMULPD       P, X, X;        \
	VADDPD       T, X, P;        \
	VBROADCASTSD cOne, T;        \
	VFMADD213PD  T, P, X;        \ // the last one fused with the +1
	VPMOVSXDQ    KH, K;          \
	VPBROADCASTQ cBias, T;       \
	VPADDQ       T, K, K;        \
	VPSLLQ       $52, K, K;      \
	VMULPD       K, X, X           // ·2^k

// TANHRATIONAL leaves math.tanh's small-argument branch
// x + x·s·((P0·s+P1)·s+P2)/(((s+Q0)·s+Q1)·s+Q2), s = x·x, in R: one
// rounding per operation, in the compiled expression's association.
// S, N, D and T are clobbered; X is preserved.
#define TANHRATIONAL(X, R, S, N, D, T) \
	VMULPD       X, X, S;    \
	VBROADCASTSD cP0, N;     \
	VMULPD       S, N, N;    \
	VBROADCASTSD cP1, T;     \
	VADDPD       T, N, N;    \
	VMULPD       S, N, N;    \
	VBROADCASTSD cP2, T;     \
	VADDPD       T, N, N;    \
	VBROADCASTSD cQ0, D;     \
	VADDPD       D, S, D;    \
	VMULPD       S, D, D;    \
	VBROADCASTSD cQ1, T;     \
	VADDPD       T, D, D;    \
	VMULPD       S, D, D;    \
	VBROADCASTSD cQ2, T;     \
	VADDPD       T, D, D;    \
	VMULPD       S, X, R;    \
	VMULPD       N, R, R;    \
	VDIVPD       D, R, R;    \
	VADDPD       R, X, R

// func expNegAVX512(v *float64, n int) int
// In-place v[i] = math.Exp(−v[i]) over n elements, n a multiple of 8.
// Returns the number of elements finished: n, or the offset of the first
// block holding a lane outside the guard.
TEXT ·expNegAVX512(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), AX
	MOVQ n+8(FP), CX
	XORQ DX, DX
	VBROADCASTSD cSign, Z13
	VBROADCASTSD cAbs, Z14
	VBROADCASTSD cGuard, Z15
en5loop:
	CMPQ DX, CX
	JGE  en5done
	VMOVUPD (AX)(DX*8), Z0
	VPXORQ  Z13, Z0, Z0          // x = −v
	VPANDQ  Z14, Z0, Z1
	VCMPPD  $18, Z15, Z1, K1     // LE_OQ: |x| ≤ 700; NaN fails
	KMOVW   K1, BX
	CMPL    BX, $0xFF
	JNE     en5done
	EXACTEXP(Z0, VCVTPD2DQ, Y2, Z3, Z4, Z5)
	VMOVUPD Z0, (AX)(DX*8)
	ADDQ $8, DX
	JMP  en5loop
en5done:
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

// func expNegAVX2(v *float64, n int) int
// The same on YMM registers; n is a multiple of 4.
TEXT ·expNegAVX2(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), AX
	MOVQ n+8(FP), CX
	XORQ DX, DX
	VBROADCASTSD cSign, Y13
	VBROADCASTSD cAbs, Y14
	VBROADCASTSD cGuard, Y15
en2loop:
	CMPQ DX, CX
	JGE  en2done
	VMOVUPD (AX)(DX*8), Y0
	VXORPD  Y13, Y0, Y0
	VANDPD  Y14, Y0, Y1
	VCMPPD  $18, Y15, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPL    BX, $0xF
	JNE     en2done
	EXACTEXP(Y0, VCVTPD2DQY, X2, Y3, Y4, Y5)
	VMOVUPD Y0, (AX)(DX*8)
	ADDQ $4, DX
	JMP  en2loop
en2done:
	MOVQ DX, ret+16(FP)
	VZEROUPPER
	RET

// func tanhAVX512(dst, src *float64, n int) int
// dst[i] = math.Tanh(src[i]) over n elements, n a multiple of 8; dst may
// alias src. Returns the number of elements finished, as expNegAVX512 does.
//
// A block whose lanes are all below 0.625 skips the exponential branch and
// one whose lanes are all at or above it skips the rational one; which
// branches ran never shows in a lane's value, only in the time taken.
TEXT ·tanhAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ DX, DX
	VBROADCASTSD cAbs, Z14
	VBROADCASTSD cGuard, Z15
	VBROADCASTSD cBranch, Z16
	VBROADCASTSD cSat, Z17
	VBROADCASTSD cSign, Z18
	VBROADCASTSD cOne, Z19
	VPXORQ       Z20, Z20, Z20
th5loop:
	CMPQ DX, CX
	JGE  th5done
	VMOVUPD (SI)(DX*8), Z0
	VPANDQ  Z14, Z0, Z1          // z = |x|
	VCMPPD  $18, Z15, Z1, K1     // LE_OQ: z ≤ 700; NaN fails
	KMOVW   K1, BX
	CMPL    BX, $0xFF
	JNE     th5done
	VCMPPD  $29, Z16, Z1, K2     // GE_OQ: z ≥ 0.625
	KMOVW   K2, BX
	CMPL    BX, $0xFF
	JE      th5exp               // which overwrites every lane of Z9
	TANHRATIONAL(Z0, Z9, Z6, Z7, Z8, Z5)
	VCMPPD  $0, Z20, Z0, K4      // EQ_OQ: tanh(±0) = ±0, the sign the sum loses
	VMOVAPD Z0, K4, Z9
	TESTL   BX, BX
	JZ      th5store
th5exp:
	VADDPD  Z1, Z1, Z2           // 2z
	EXACTEXP(Z2, VCVTPD2DQ, Y3, Z4, Z5, Z6)
	VADDPD  Z19, Z2, Z2          // s + 1
	VBROADCASTSD cTwo, Z5
	VDIVPD  Z2, Z5, Z2           // 2/(s+1)
	VSUBPD  Z2, Z19, Z2          // 1 − 2/(s+1)
	VCMPPD  $30, Z17, Z1, K3     // GT_OQ: z > 0.5·MAXLOG saturates
	VMOVAPD Z19, K3, Z2
	VPANDQ  Z18, Z0, Z5
	VPXORQ  Z5, Z2, Z2           // x < 0 negates
	VMOVAPD Z2, K2, Z9
th5store:
	VMOVUPD Z9, (DI)(DX*8)
	ADDQ $8, DX
	JMP  th5loop
th5done:
	MOVQ DX, ret+24(FP)
	VZEROUPPER
	RET

// func tanhAVX2(dst, src *float64, n int) int
// The same on YMM registers; n is a multiple of 4.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ DX, DX
	VBROADCASTSD cAbs, Y14
	VBROADCASTSD cGuard, Y15
	VBROADCASTSD cOne, Y13
	VXORPD       Y12, Y12, Y12
th2loop:
	CMPQ DX, CX
	JGE  th2done
	VMOVUPD (SI)(DX*8), Y0
	VANDPD  Y14, Y0, Y1          // z = |x|
	VCMPPD  $18, Y15, Y1, Y2     // LE_OQ: z ≤ 700; NaN fails
	VMOVMSKPD Y2, BX
	CMPL    BX, $0xF
	JNE     th2done
	VBROADCASTSD cBranch, Y2
	VCMPPD  $29, Y2, Y1, Y10     // GE_OQ: z ≥ 0.625
	VMOVMSKPD Y10, BX
	CMPL    BX, $0xF
	JE      th2exp               // which overwrites every lane of Y9
	TANHRATIONAL(Y0, Y9, Y6, Y7, Y8, Y5)
	VCMPPD  $0, Y12, Y0, Y5      // EQ_OQ: tanh(±0) = ±0
	VBLENDVPD Y5, Y0, Y9, Y9
	TESTL   BX, BX
	JZ      th2store
th2exp:
	VADDPD  Y1, Y1, Y2           // 2z
	EXACTEXP(Y2, VCVTPD2DQY, X3, Y4, Y5, Y6)
	VADDPD  Y13, Y2, Y2          // s + 1
	VBROADCASTSD cTwo, Y5
	VDIVPD  Y2, Y5, Y2           // 2/(s+1)
	VSUBPD  Y2, Y13, Y2          // 1 − 2/(s+1)
	VBROADCASTSD cSat, Y5
	VCMPPD  $30, Y5, Y1, Y5      // GT_OQ: z > 0.5·MAXLOG saturates
	VBLENDVPD Y5, Y13, Y2, Y2
	VBROADCASTSD cSign, Y5
	VANDPD  Y5, Y0, Y5
	VXORPD  Y5, Y2, Y2           // x < 0 negates
	VBLENDVPD Y10, Y2, Y9, Y9
th2store:
	VMOVUPD Y9, (DI)(DX*8)
	ADDQ $4, DX
	JMP  th2loop
th2done:
	MOVQ DX, ret+24(FP)
	VZEROUPPER
	RET
