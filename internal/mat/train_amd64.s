// SIMD kernels of the tape-free training engine (see train.go for the
// contracts and the bit-identity argument). As in gemm_amd64.s, vector
// lanes are always distinct output elements and every product is rounded
// by its own VMULPD before the VADDPD — never VFMADD, except inside the
// Adam kernels' reciprocal division, where the fused pair IS the correctly
// rounded quotient, and in the certified square root, whose FMAs only
// propose a root that an exact test accepts (see adamAVX512). The hot
// loops are PCALIGNed: the scalar kernels they replace moved 11 % on a
// relink that only shifted their loop heads across a fetch boundary
// (BENCH.md §11).

#include "textflag.h"

// func atStepsAVX512(dst, a, b *float64, n, m, ldb, steps int)
//
//	dst[k*m+j] = Σ_t a[t*n+k]·b[t*ldb+j]   t = steps−1 … 0, a == ±0 skipped
//
// for j < m&^7 (the Go wrapper finishes the column tail). One dst row at a
// time, its columns held in registers across the whole time loop and
// started from +0 there, so each gradient element is stored once per
// window and never loaded. n, m&^7 and steps are ≥ 1.
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
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
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
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
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
	VPXORQ Z0, Z0, Z0
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
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
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
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
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
	VXORPD Y0, Y0, Y0
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

DATA trainOne<>+0(SB)/8, $1.0
GLOBL trainOne<>(SB), RODATA|NOPTR, $8

// GATESBACK is one vector of LSTMGatesBackInto (train.go), operation for
// operation: every product its own VMULPD, every "0 +" a VADDPD with the
// zero register V14 (it turns a −0 product into +0, as the scalar form
// does), V15 = 1.0. Pointers: dpre rows i, f, c, o in DI, R14, R15, R10;
// activations i, f, c̃, o in BX, R11, R12, R13; carry SI, dh DX, tanhC R8,
// cPrev R9; AX is the byte offset of the vector. Written for Y and Z
// registers alike.
#define GATESBACK(V0, V1, V2, V3, V4, V5, V6, V7, V8, V9, V10, V11, V12, V13, V14, V15) \
	VMOVUPD (DX)(AX*1), V0;   \ // dh
	VMOVUPD (R8)(AX*1), V1;   \ // tanh(c)
	VMOVUPD (R13)(AX*1), V2;  \ // o
	VMOVUPD (BX)(AX*1), V3;   \ // i
	VMOVUPD (R11)(AX*1), V4;  \ // f
	VMOVUPD (R12)(AX*1), V5;  \ // c̃
	VMOVUPD (R9)(AX*1), V6;   \ // c_{t−1}
	VMOVUPD (SI)(AX*1), V7;   \ // carry
	VMULPD  V1, V0, V8;       \
	VADDPD  V8, V14, V8;      \ // do = 0 + dh·tanh(c)
	VMULPD  V2, V0, V9;       \
	VADDPD  V9, V14, V9;      \ // dtc = 0 + dh·o
	VMULPD  V1, V1, V10;      \
	VSUBPD  V10, V15, V10;    \ // 1 − tanh²(c)
	VMULPD  V10, V9, V10;     \
	VADDPD  V10, V7, V10;     \ // dc = carry + dtc·(1 − tanh²(c))
	VMULPD  V6, V10, V11;     \
	VADDPD  V11, V14, V11;    \ // df = 0 + dc·c_{t−1}
	VMULPD  V4, V10, V7;      \
	VADDPD  V7, V14, V7;      \ // carry = 0 + dc·f
	VMOVUPD V7, (SI)(AX*1);   \
	VMULPD  V5, V10, V12;     \
	VADDPD  V12, V14, V12;    \ // di = 0 + dc·c̃
	VMULPD  V3, V10, V13;     \
	VADDPD  V13, V14, V13;    \ // dc̃ = 0 + dc·i
	VMULPD  V2, V8, V8;       \
	VSUBPD  V2, V15, V9;      \
	VMULPD  V9, V8, V8;       \
	VADDPD  V8, V14, V8;      \ // dpre_o = 0 + (do·o)·(1 − o)
	VMOVUPD V8, (R10)(AX*1);  \
	VMULPD  V5, V5, V9;       \
	VSUBPD  V9, V15, V9;      \
	VMULPD  V9, V13, V13;     \
	VADDPD  V13, V14, V13;    \ // dpre_c = 0 + dc̃·(1 − c̃²)
	VMOVUPD V13, (R15)(AX*1); \
	VMULPD  V4, V11, V11;     \
	VSUBPD  V4, V15, V9;      \
	VMULPD  V9, V11, V11;     \
	VADDPD  V11, V14, V11;    \ // dpre_f = 0 + (df·f)·(1 − f)
	VMOVUPD V11, (R14)(AX*1); \
	VMULPD  V3, V12, V12;     \
	VSUBPD  V3, V15, V9;      \
	VMULPD  V9, V12, V12;     \
	VADDPD  V12, V14, V12;    \ // dpre_i = 0 + (di·i)·(1 − i)
	VMOVUPD V12, (DI)(AX*1)

// GATESBACKARGS loads the pointers GATESBACK names from the arguments of
// gatesBackAVX512/AVX2 and leaves the byte length of the n elements in CX.
#define GATESBACKARGS \
	MOVQ dpre+0(FP), DI;   \
	MOVQ carry+8(FP), SI;  \
	MOVQ dh+16(FP), DX;    \
	MOVQ act+24(FP), BX;   \
	MOVQ tanhC+32(FP), R8; \
	MOVQ cPrev+40(FP), R9; \
	MOVQ h+48(FP), R10;    \
	MOVQ n+56(FP), CX;     \
	SHLQ $3, R10;          \
	SHLQ $3, CX;           \
	LEAQ (BX)(R10*1), R11; \
	LEAQ (R11)(R10*1), R12; \
	LEAQ (R12)(R10*1), R13; \
	LEAQ (DI)(R10*1), R14; \
	LEAQ (R14)(R10*1), R15; \
	LEAQ (R15)(R10*1), R10; \
	XORQ AX, AX

// func gatesBackAVX512(dpre, carry, dh, act, tanhC, cPrev *float64, h, n int)
// The first n elements (a positive multiple of 8) of one step's gate
// backward; h is the gate stride of dpre and act.
TEXT ·gatesBackAVX512(SB), NOSPLIT, $0-64
	GATESBACKARGS
	VPXORQ Z14, Z14, Z14
	VBROADCASTSD trainOne<>(SB), Z15
gb5loop:
	GATESBACK(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	ADDQ $64, AX
	CMPQ AX, CX
	JLT  gb5loop
	VZEROUPPER
	RET

// func gatesBackAVX2(dpre, carry, dh, act, tanhC, cPrev *float64, h, n int)
// The same on YMM registers; n is a positive multiple of 4.
TEXT ·gatesBackAVX2(SB), NOSPLIT, $0-64
	GATESBACKARGS
	VXORPD Y14, Y14, Y14
	VBROADCASTSD trainOne<>(SB), Y15
gb2loop:
	GATESBACK(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  gb2loop
	VZEROUPPER
	RET

// Range of the reciprocal divisions below, as bit patterns: a divisor in
// [2⁻¹⁰⁰, 2¹⁰⁰] and a numerator of magnitude in [2⁻⁹⁰⁰, 2⁹⁰⁰] keep the
// quotient, the residual (53 bits below the numerator) and both products
// normal. Each range is its low end and its width, for one unsigned compare.
DATA adamRange<>+0(SB)/8, $0x39B0000000000000  // 2⁻¹⁰⁰
DATA adamRange<>+8(SB)/8, $0x0C80000000000000  // 2¹⁰⁰ − 2⁻¹⁰⁰
DATA adamRange<>+16(SB)/8, $0x07B0000000000000 // 2⁻⁹⁰⁰
DATA adamRange<>+24(SB)/8, $0x7080000000000000 // 2⁹⁰⁰ − 2⁻⁹⁰⁰
DATA adamRange<>+32(SB)/8, $0x7830000000000000 // 2⁹⁰⁰
DATA adamRange<>+40(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL adamRange<>(SB), RODATA|NOPTR, $48

// DIVISOROK leaves 0 in OK when the divisor whose bits are in B lies in
// [2⁻¹⁰⁰, 2¹⁰⁰] (positive, finite, normal), and 1 otherwise. T is clobbered.
#define DIVISOROK(B, OK, T) \
	MOVQ  B, T;                     \
	SUBQ  adamRange<>+0(SB), T;     \
	XORQ  OK, OK;                   \
	CMPQ  T, adamRange<>+8(SB);     \
	SETHI OK

// RECIPDIV replaces A by A/B, correctly rounded, without dividing: with
// Y = RN(1/B), Markstein's sequence q = A·Y, r = A − B·q (exact in an
// FMA), q' = q + r·Y. Valid for the lanes the guard admits; Q is clobbered.
#define RECIPDIV(A, B, Y, Q) \
	VMULPD       Y, A, Q;  \
	VFNMADD231PD B, Q, A;  \
	VFMADD231PD  Y, A, Q;  \
	VMOVAPD      Q, A

// ADAMGUARD5 sets ZF when every lane of A may take RECIPDIV in adamAVX512
// (whose Z27–Z29 hold the magnitude mask and the numerator range): each is
// +0 or of magnitude in [2⁻⁹⁰⁰, 2⁹⁰⁰], and the divisor's flag OK is clear.
// Z6, K1, K2 and R9 are clobbered.
#define ADAMGUARD5(A, OK) \
	VPANDQ    Z27, A, Z6;        \
	VPSUBQ    Z28, Z6, Z6;       \
	VPCMPUQ   $2, Z29, Z6, K1;   \ // LE: 2⁻⁹⁰⁰ ≤ |a| ≤ 2⁹⁰⁰, one unsigned compare
	VPTESTNMQ A, A, K2;          \ // a is +0
	KORW      K1, K2, K1;        \
	KMOVW     K1, R9;            \
	XORL      $0xFF, R9;         \
	ORQ       OK, R9

DATA sqrtConst<>+0(SB)/8, $0.5
DATA sqrtConst<>+8(SB)/8, $1
GLOBL sqrtConst<>(SB), RODATA|NOPTR, $16

// CERTSQRT leaves a candidate for √X in S and sets in K4 the lanes where it
// is certified to be RN(√X), the correctly rounded root VSQRTPD returns;
// where K4 is clear, S is meaningless. Y holds VRSQRT14PD(X), Z14 0.5 and
// Z15 the integer 1 in every lane, Z27 the magnitude mask; X and Y are
// preserved, T0–T3 and K3 clobbered. It runs on the FMA ports, beside the
// divider.
//
// The candidate: one coupled Newton step from y (relative error < 2⁻¹⁴)
// for s ≈ √x and h ≈ 1/(2√x), to ≈ 2⁻²⁷, then two corrections
// s += h·(x − s²), each residual one FMA. The first brings s within an ulp;
// the second adds h·r, off by ≈ 2⁻²⁷ ulp, to s before its one rounding, so
// s is RN(√x) unless √x lies within ≈ 2⁻²⁷ ulp of a rounding midpoint.
//
// The certificate, Tuckerman's rounding test, does not rely on that
// analysis. With s ← |s|, p = pred(s) and q = succ(s) (s's bits ∓ 1), it
// forms a = RN(x − s·p) and b = RN(s·q − x), one FMA each, and a lane
// passes when min(a, b) > 0 — or when x is +0, and then √+0 = +0 is
// blended in. Passing implies s = RN(√x) for every finite x > 0:
//
//  1. RN is monotone and RN(0) = 0, so a > 0 and b > 0 give
//     s·p < x < s·q exactly. s is then finite, positive and, x being at
//     least 2⁻¹⁰⁷⁴, above 2⁻⁵³⁸: normal.
//  2. Let s ∈ [2ᵉ, 2ᵉ⁺¹) and u' = q − s = 2ᵉ⁻⁵², the weight of s's last
//     bit, and u = s − p (u', or u'/2 when s = 2ᵉ). s·p and s·q are
//     multiples of u'². So is x: it exceeds s·p ≥ 2²ᵉ⁻¹, so it is a
//     multiple of 2²ᵉ⁻⁵³ if normal, and if subnormal s < 2⁻⁵¹¹ and x is a
//     multiple of 2⁻¹⁰⁷⁴ ≥ u'².
//  3. Lower side: x − s·p > 0 and a multiple of u'², so
//     x ≥ s·p + u'² = s² − s·u + u'² > (s − u/2)².
//  4. Upper side: x < s·q = s² + s·u' < (s + u'/2)².
//  5. So s − u/2 < √x < s + u'/2: √x lies strictly inside the interval
//     that rounds to s (never on an end: a midpoint has 54 significant
//     bits and its square is no double), and s = RN(√x).
//
// Every other input fails: x = ±Inf, NaN, −0 or negative makes s NaN, and
// a NaN s makes both residuals NaN; s = +0 gives b = −x ≤ 0 and s = +Inf
// gives a = −Inf. VMINPD may return either operand when one is NaN; in
// each of those cases the other is NaN or ≤ 0 too.
#define CERTSQRT(X, Y, S, T0, T1, T2, T3) \
	VMULPD       Y, X, S;         \ // s ≈ √x
	VMULPD       Z14, Y, T0;      \ // h ≈ 1/(2√x)
	VMOVAPD      Z14, T1;         \
	VFNMADD231PD T0, S, T1;       \ // e = ½ − s·h
	VFMADD231PD  T1, S, S;        \ // s += s·e
	VFMADD231PD  T1, T0, T0;      \ // h += h·e
	VMOVAPD      X, T1;           \
	VFNMADD231PD S, S, T1;        \ // r = x − s²
	VFMADD231PD  T1, T0, S;       \ // s += h·r
	VMOVAPD      X, T1;           \
	VFNMADD231PD S, S, T1;        \
	VFMADD231PD  T1, T0, S;       \ // s += h·r: the candidate
	VPANDQ       Z27, S, S;       \ // |s|
	VPSUBQ       Z15, S, T2;      \ // pred(s)
	VPADDQ       Z15, S, T3;      \ // succ(s)
	VMOVAPD      X, T1;           \
	VFNMADD231PD T2, S, T1;       \ // a = RN(x − s·pred(s))
	VFMSUB213PD  X, S, T3;        \ // b = RN(s·succ(s) − x)
	VMINPD       T3, T1, T1;      \
	VPTESTNMQ    X, X, K3;        \
	VMOVAPD      Z14, K3, T1;     \ // x = +0 passes,
	VMOVAPD      X, K3, S;        \ // with √+0 = +0
	VPXORQ       T3, T3, T3;      \
	VCMPPD       $30, T3, T1, K4      // GT_OQ: min(a, b) > 0

// func adamAVX512(p, m, v, grad *float64, n int, c *AdamCoef)
// One Adam update over n elements (n a positive multiple of 8); see
// AdamInto for the formula. The operation sequence and association match
// the scalar loop term for term; VDIVPD and VSQRTPD are correctly rounded.
//
// The divider would bound the loop: three divisions and a square root per
// vector. The last division, by √v̂ + ε, stays there. The root of every
// other vector moves to the FMA ports (CERTSQRT; VSQRTPD only where its
// certificate fails, which no served vector does): moving all of them
// makes the ports the bound instead — on the 2-vCPU Xeon all-certified ran
// no faster than all-VSQRTPD, half and half 16 % faster (BENCH.md §33).
// Two divisions have a divisor that is one scalar for the whole call:
// m'/bc₁ and v'/bc₂. Those
// take RECIPDIV with one true division per call (Y = 1/bc): the correctly
// rounded quotient from a multiply and two FMAs (P. W. Markstein,
// "Computation of elementary functions on the IBM RISC System/6000
// processor", IBM J. Res. Dev. 34(1), 1990; Muller et al., Handbook of
// Floating-Point Arithmetic, "Newton–Raphson-based division with an FMA";
// BENCH.md "The exact gate kernel" has the argument) — behind a per-vector
// guard: a vector with a lane that is not +0 and not of magnitude in
// [2⁻⁹⁰⁰, 2⁹⁰⁰] (−0, whose sign the sequence loses, subnormal, huge,
// non-finite) takes VDIVPD, as does every vector when bc itself is outside
// [2⁻¹⁰⁰, 2¹⁰⁰]. bc₁ = 1 − β₁ᵗ is exactly 1.0 from t ≈ 350 on, and x/1 = x
// for every x, so then that quotient is skipped altogether.
// TestAdamReciprocalDivisionExact holds the sequence to `/`.
//
// The loop is software-pipelined in three stages, so each pass issues work
// whose inputs are mostly ready: pass j runs stage B (the division and the
// store of p) for vector j−2, stage A2 (the root) for vector j−1 and stage
// A1 (the moments, m̂ and v̂) for vector j; n/8 + 2 passes drain it.
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
	VBROADCASTSD trainOne<>(SB), Z25
	VDIVPD Z22, Z25, Z26       // 1/bc₂
	VDIVPD Z21, Z25, Z25       // 1/bc₁
	VPBROADCASTQ adamRange<>+40(SB), Z27 // |·|
	VPBROADCASTQ adamRange<>+16(SB), Z28
	VPBROADCASTQ adamRange<>+24(SB), Z29
	VBROADCASTSD sqrtConst<>+0(SB), Z14
	VPBROADCASTQ sqrtConst<>+8(SB), Z15
	MOVQ 40(AX), R8
	DIVISOROK(R8, R10, R9)     // R10 = 0 ⇔ bc₁ may take the reciprocal form
	MOVQ 48(AX), R9
	DIVISOROK(R9, R11, R12)    // R11 likewise for bc₂
	MOVQ $0x3FF0000000000000, R9
	XORQ R9, R8                // R8 == 0 ⇔ bc₁ is exactly 1.0
	SHRQ $3, CX
	LEAQ 1(CX), R13            // the last pass runs stage B alone
	XORQ R12, R12              // pass j: B(j−2), A2(j−1), A1(j)
	PCALIGN $32
a5loop:
	CMPQ R12, $2
	JLT  a5stage2
	// Stage B: p −= Z7/(Z12 + ε), Z12 = √v̂ where K4 is all set, else
	// VSQRTPD of v̂ (Z13).
	KMOVW  K4, R9
	CMPB   R9, $0xFF
	JNE    a5sqrt
a5root:
	VADDPD Z24, Z12, Z12       // √v̂ + ε
	VDIVPD Z12, Z7, Z7
	VMOVUPD (DI), Z5
	VSUBPD Z7, Z5, Z5          // p − step
	VMOVUPD Z5, (DI)
	ADDQ $64, DI
	CMPQ R12, R13
	JEQ  a5done
a5stage2:
	TESTQ R12, R12
	JZ   a5stage1
	CMPQ R12, CX
	JGT  a5next
	// Stage A2: the certified root of v̂ (Z11) from y (Z9), handed on
	// with LR·m̂ (Z10) to stage B — for every other vector. The rest
	// leave their root to VSQRTPD in stage B, so the divider and the FMA
	// ports share the roots.
	KXORW  K4, K4, K4
	TESTQ  $1, R12
	JZ     a5hand
	CERTSQRT(Z11, Z9, Z12, Z5, Z6, Z8, Z4)
a5hand:
	VMOVAPD Z11, Z13
	VMOVAPD Z10, Z7
a5stage1:
	CMPQ R12, CX
	JGE  a5next
	// Stage A1: the moments, LR·m̂, v̂ and its reciprocal square root.
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
	ADAMGUARD5(Z1, R10)
	JNZ  a5mdiv
	RECIPDIV(Z1, Z21, Z25, Z6) // m̂ = m'/bc₁
	JMP  a5mhat
a5mdiv:
	VDIVPD Z21, Z1, Z1
a5mhat:
	VMULPD Z1, Z23, Z10        // LR·m̂
	ADAMGUARD5(Z3, R11)
	JNZ  a5vdiv
	RECIPDIV(Z3, Z22, Z26, Z6) // v̂ = v'/bc₂
	JMP  a5vhat
a5vdiv:
	VDIVPD Z22, Z3, Z3
a5vhat:
	VMOVAPD Z3, Z11
	VRSQRT14PD Z3, Z9
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, BX
a5next:
	INCQ R12
	JMP  a5loop
a5sqrt:
	VSQRTPD Z13, Z12
	JMP  a5root
a5done:
	VZEROUPPER
	RET

// ADAMGUARD2 sets ZF when every lane of A may take RECIPDIV (see
// adamAVX512): no lane below 2⁻⁹⁰⁰ or above 2⁹⁰⁰ in magnitude other than
// +0, and the divisor's flag OK clear. Magnitudes compare as signed
// integers, which is their order. T0–T2 and R9 are clobbered.
#define ADAMGUARD2(A, OK, T0, T1, T2) \
	VPBROADCASTQ adamRange<>+40(SB), T0; \
	VPAND        T0, A, T0;              \
	VPBROADCASTQ adamRange<>+16(SB), T1; \
	VPCMPGTQ     T0, T1, T1;             \ // 2⁻⁹⁰⁰ > |a|
	VPBROADCASTQ adamRange<>+32(SB), T2; \
	VPCMPGTQ     T2, T0, T2;             \ // |a| > 2⁹⁰⁰
	VPOR         T2, T1, T1;             \
	VPXOR        T2, T2, T2;             \
	VPCMPEQQ     T2, A, T2;              \ // a is +0
	VPANDN       T1, T2, T1;             \
	VMOVMSKPD    T1, R9;                 \
	ORQ          OK, R9

// func adamAVX2(p, m, v, grad *float64, n int, c *AdamCoef)
// The same update on YMM registers; n is a positive multiple of 4. It
// needs FMA next to AVX2 (simdAdamInto checks).
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ c+40(FP), AX
	VBROADCASTSD 8(AX), Y7
	VBROADCASTSD 16(AX), Y8
	VBROADCASTSD 24(AX), Y9
	VBROADCASTSD 32(AX), Y10
	VBROADCASTSD 40(AX), Y11
	VBROADCASTSD 48(AX), Y12
	VBROADCASTSD trainOne<>(SB), Y13
	VDIVPD Y12, Y13, Y14       // 1/bc₂
	VDIVPD Y11, Y13, Y13       // 1/bc₁
	MOVQ 40(AX), R8
	DIVISOROK(R8, R10, R9)
	MOVQ 48(AX), R9
	DIVISOROK(R9, R11, R12)
	MOVQ $0x3FF0000000000000, R9
	XORQ R9, R8
	SHRQ $2, CX
	PCALIGN $32
a2loop:
	VBROADCASTSD (AX), Y0      // GradScale
	VMULPD (BX), Y0, Y0
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
	ADAMGUARD2(Y1, R10, Y4, Y5, Y6)
	JNZ  a2mdiv
	RECIPDIV(Y1, Y11, Y13, Y6)
	JMP  a2mhat
a2mdiv:
	VDIVPD Y11, Y1, Y1
a2mhat:
	ADAMGUARD2(Y3, R11, Y4, Y5, Y6)
	JNZ  a2vdiv
	RECIPDIV(Y3, Y12, Y14, Y6)
	JMP  a2vhat
a2vdiv:
	VDIVPD Y12, Y3, Y3
a2vhat:
	VBROADCASTSD 56(AX), Y4    // LR
	VMULPD Y1, Y4, Y1
	VSQRTPD Y3, Y3
	VBROADCASTSD 64(AX), Y4    // ε
	VADDPD Y4, Y3, Y3
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

// func sqrtAVX512(dst, src *float64, n int) int
// dst[i] = √src[i] over n elements (n a positive multiple of 8) by the
// CERTSQRT sequence adamAVX512 runs, VSQRTPD where its certificate fails;
// returns how many vectors failed. Tests hold it to math.Sqrt.
TEXT ·sqrtAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	XORQ DX, DX
	VPBROADCASTQ adamRange<>+40(SB), Z27
	VBROADCASTSD sqrtConst<>+0(SB), Z14
	VPBROADCASTQ sqrtConst<>+8(SB), Z15
sq5loop:
	VMOVUPD (SI), Z3
	VRSQRT14PD Z3, Z9
	CERTSQRT(Z3, Z9, Z12, Z5, Z6, Z8, Z4)
	KMOVW  K4, R9
	CMPB   R9, $0xFF
	JEQ    sq5store
	VSQRTPD Z3, Z12
	INCQ   DX
sq5store:
	VMOVUPD Z12, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  sq5loop
	MOVQ DX, ret+24(FP)
	VZEROUPPER
	RET
