// AVX2+FMA bodies of gemvRows, sigmoidInto and tanhInto (kernels.go). Each
// lane runs the portable Go body's operations in its order, so the results
// are bit-identical to it: the exp below is math.archExp's FMA path (the one
// math.Exp takes on a CPU with AVX and FMA) with its constants and operation
// order, and the sigmoid and tanh around it are sigmoid (adam.go) and
// math.tanh with every branch computed and blended per lane. init uses
// these only after checking that claim on a probe set (kernels.go).
//
// Only VEX-encoded instructions are used, and every function ends with
// VZEROUPPER: mixing legacy SSE encodings with dirty upper YMM state costs
// a state transition per instruction on some CPUs.

#include "textflag.h"

#define CONST4(sym, bits) DATA sym<>+0(SB)/8, $bits; DATA sym<>+8(SB)/8, $bits; DATA sym<>+16(SB)/8, $bits; DATA sym<>+24(SB)/8, $bits; GLOBL sym<>(SB), RODATA|NOPTR, $32
#define CONSTD4(sym, bits) DATA sym<>+0(SB)/4, $bits; DATA sym<>+4(SB)/4, $bits; DATA sym<>+8(SB)/4, $bits; DATA sym<>+12(SB)/4, $bits; GLOBL sym<>(SB), RODATA|NOPTR, $16

// math.archExp's constants (exp_amd64.s).
CONST4(log2e, 0x3ff71547652b82fe)    // 1/ln 2
CONST4(ln2u, 0x3fe62e42fefa3000)     // upper half of ln 2
CONST4(ln2l, 0x3d53de6af278ece6)     // lower half of ln 2
CONST4(expmax, 0x40862e42fefa39ef)   // 7.09782712893384e+02, the overflow bound
CONST4(sixteenth, 0x3fb0000000000000)
CONST4(half, 0x3fe0000000000000)
CONST4(one, 0x3ff0000000000000)
CONST4(two, 0x4000000000000000)
CONST4(exp24, 0x3fc5555555555555)    // 1/3!
CONST4(exp32, 0x3fa5555555555555)    // 1/4!
CONST4(exp40, 0x3f81111111111111)    // 1/5!
CONST4(exp48, 0x3f56c16c16c16c17)    // 1/6!
CONST4(exp56, 0x3f2a01a01a01a01a)    // 1/7!
CONST4(exp64, 0x3efa01a01a01a01a)    // 1/8!
CONST4(inf, 0x7ff0000000000000)
CONST4(tiny, 0x0010000000000000)     // 2^-1022, the smallest normal
CONST4(signbit, 0x8000000000000000)
CONST4(absmask, 0x7fffffffffffffff)
CONSTD4(bias, 0x3ff)
CONSTD4(bias1, 0x3fe)
CONSTD4(maxexp, 0x7fe)
CONSTD4(minexp, 0xffffffcc)          // -52

// math.tanh's constants (tanh.go).
CONST4(tanhbig, 0x404601e678fc457b)  // 0.5*MAXLOG
CONST4(tanhmid, 0x3fe4000000000000)  // 0.625
CONST4(tanhp0, 0xbfeedc5baafd6f4b)
CONST4(tanhp1, 0xc058d26a0e26682d)
CONST4(tanhp2, 0xc0993ac030580563)
CONST4(tanhq0, 0x405c33f28a581b86)
CONST4(tanhq1, 0x40a176fa0e5535fa)
CONST4(tanhq2, 0x40b2ec102442040c)

// tailmask+(3-n)*8 is the 4-lane mask of the first n lanes, n in 1..3.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $0
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $48

// EXP4 sets Y3 = exp(Y0) per lane, as math.archExp's FMA path computes it,
// and clobbers Y1, Y2 and Y4-Y8.
//
// The scalar code: k = int32(x*LOG2E) rounded to nearest;
// r = x - k*LN2U - k*LN2L (fused); r /= 16; a Taylor polynomial by FMA;
// four doublings r = r*(r+2), the last fused with +1; then r*2^k, through a
// second multiply by 2^-1022 when the biased exponent e = k+1023 is
// subnormal. Its early exits are blended in last: e < -52 gives 0,
// e > 0x7fe or x > expmax gives +Inf, and NaN gives x.
#define EXP4 \
	VMULPD       log2e<>(SB), Y0, Y1;     \
	VCVTPD2DQY   Y1, X2;                  \
	VCVTDQ2PD    X2, Y1;                  \
	VMOVAPD      Y0, Y3;                  \
	VFNMADD231PD ln2u<>(SB), Y1, Y3;      \
	VFNMADD231PD ln2l<>(SB), Y1, Y3;      \
	VMULPD       sixteenth<>(SB), Y3, Y3; \
	VMOVUPD      exp64<>(SB), Y4;         \
	VFMADD213PD  exp56<>(SB), Y3, Y4;     \
	VFMADD213PD  exp48<>(SB), Y3, Y4;     \
	VFMADD213PD  exp40<>(SB), Y3, Y4;     \
	VFMADD213PD  exp32<>(SB), Y3, Y4;     \
	VFMADD213PD  exp24<>(SB), Y3, Y4;     \
	VFMADD213PD  half<>(SB), Y3, Y4;      \
	VFMADD213PD  one<>(SB), Y3, Y4;       \
	VMULPD       Y4, Y3, Y3;              \
	VADDPD       two<>(SB), Y3, Y4;       \
	VMULPD       Y4, Y3, Y3;              \
	VADDPD       two<>(SB), Y3, Y4;       \
	VMULPD       Y4, Y3, Y3;              \
	VADDPD       two<>(SB), Y3, Y4;       \
	VMULPD       Y4, Y3, Y3;              \
	VADDPD       two<>(SB), Y3, Y4;       \
	VFMADD213PD  one<>(SB), Y4, Y3;       \
	/* X5 = e; X6 = (e > 0), the normal lanes */ \
	VPADDD       bias<>(SB), X2, X5;      \
	VPXOR        X6, X6, X6;              \
	VPCMPGTD     X6, X5, X6;              \
	/* r *= 2^(e-1023), or 2^(e-1) then 2^-1022 when subnormal */ \
	VPANDN       bias1<>(SB), X6, X7;     \
	VPADDD       X7, X5, X7;              \
	VPMOVZXDQ    X7, Y7;                  \
	VPSLLQ       $52, Y7, Y7;             \
	VMULPD       Y7, Y3, Y3;              \
	VPMOVSXDQ    X6, Y6;                  \
	VMOVUPD      tiny<>(SB), Y8;          \
	VBLENDVPD    Y6, one<>(SB), Y8, Y8;   \
	VMULPD       Y8, Y3, Y3;              \
	/* e < -52: 0 */ \
	VMOVDQU      minexp<>(SB), X7;        \
	VPCMPGTD     X5, X7, X7;              \
	VPMOVSXDQ    X7, Y7;                  \
	VANDNPD      Y3, Y7, Y3;              \
	/* e > 0x7fe or x > expmax (GT_OQ): +Inf */ \
	VPCMPGTD     maxexp<>(SB), X5, X8;    \
	VPMOVSXDQ    X8, Y8;                  \
	VCMPPD       $0x1e, expmax<>(SB), Y0, Y6; \
	VORPD        Y6, Y8, Y8;              \
	VBLENDVPD    Y8, inf<>(SB), Y3, Y3;   \
	/* NaN (UNORD_Q): x */ \
	VCMPPD       $0x03, Y0, Y0, Y6;       \
	VBLENDVPD    Y6, Y0, Y3, Y3

// SIGMOID4 sets Y3 = sigmoid(Y9) per lane: x >= 0 (GE_OQ, so not NaN)
// gives 1/(exp(-x)+1), otherwise e/(1+e) with e = exp(x). It clobbers
// Y0-Y8 and Y10-Y11.
#define SIGMOID4 \
	VXORPD    X10, X10, X10;          \
	VCMPPD    $0x1d, Y10, Y9, Y10;    \
	VXORPD    signbit<>(SB), Y9, Y11; \
	VBLENDVPD Y10, Y11, Y9, Y0;       \
	EXP4;                             \
	VADDPD    one<>(SB), Y3, Y4;      \
	VBLENDVPD Y10, one<>(SB), Y3, Y5; \
	VDIVPD    Y4, Y5, Y3

// TANH4 sets Y3 = math.tanh(Y9) per lane and clobbers Y0-Y8 and Y10-Y12.
//
// The scalar code, with z = |x|: z > 0.5*MAXLOG gives ±1; z >= 0.625
// gives ±(1 - 2/(exp(z+z)+1)); x == 0 gives x; the rest get the rational
// polynomial x + x*s*P(s)/Q(s), s = x*x. All compares are ordered, so NaN
// takes the polynomial, as in the scalar code.
#define TANH4 \
	VANDPD    absmask<>(SB), Y9, Y10; \
	VADDPD    Y10, Y10, Y0;           \
	EXP4;                             \
	VADDPD    one<>(SB), Y3, Y4;      \
	VMOVUPD   two<>(SB), Y5;          \
	VDIVPD    Y4, Y5, Y5;             \
	VMOVUPD   one<>(SB), Y6;          \
	VSUBPD    Y5, Y6, Y6;             \
	VANDPD    signbit<>(SB), Y9, Y7;  \
	VXORPD    Y7, Y6, Y11;            \
	VORPD     one<>(SB), Y7, Y12;     \
	/* Y0 = s, Y1 = x*s, Y2 = P(s)*x*s, Y4 = Q(s) */ \
	VMULPD    Y9, Y9, Y0;             \
	VMULPD    Y0, Y9, Y1;             \
	VMULPD    tanhp0<>(SB), Y0, Y2;   \
	VADDPD    tanhp1<>(SB), Y2, Y2;   \
	VMULPD    Y0, Y2, Y2;             \
	VADDPD    tanhp2<>(SB), Y2, Y2;   \
	VMULPD    Y1, Y2, Y2;             \
	VADDPD    tanhq0<>(SB), Y0, Y4;   \
	VMULPD    Y0, Y4, Y4;             \
	VADDPD    tanhq1<>(SB), Y4, Y4;   \
	VMULPD    Y0, Y4, Y4;             \
	VADDPD    tanhq2<>(SB), Y4, Y4;   \
	VDIVPD    Y4, Y2, Y2;             \
	VADDPD    Y2, Y9, Y3;             \
	/* x == 0 (EQ_OQ), z >= 0.625 (GE_OQ), z > 0.5*MAXLOG (GT_OQ) */ \
	VXORPD    X5, X5, X5;             \
	VCMPPD    $0x00, Y5, Y9, Y6;      \
	VBLENDVPD Y6, Y9, Y3, Y3;         \
	VCMPPD    $0x1d, tanhmid<>(SB), Y10, Y6; \
	VBLENDVPD Y6, Y11, Y3, Y3;        \
	VCMPPD    $0x1e, tanhbig<>(SB), Y10, Y6; \
	VBLENDVPD Y6, Y12, Y3, Y3

// TAILMASK loads into Y15 the mask of the first CX lanes, CX in 1..3.
#define TAILMASK \
	MOVQ    $3, AX;          \
	SUBQ    CX, AX;          \
	LEAQ    tailmask<>(SB), DX; \
	VMOVDQU (DX)(AX*8), Y15

// func sigmoidVec(dst, src []float64)
TEXT ·sigmoidVec(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX

sigloop:
	CMPQ    CX, $4
	JLT     sigtail
	VMOVUPD (SI), Y9
	SIGMOID4
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     sigloop

sigtail:
	TESTQ CX, CX
	JZ    sigdone
	TAILMASK
	VMASKMOVPD (SI), Y15, Y9
	SIGMOID4
	VMASKMOVPD Y3, Y15, (DI)

sigdone:
	VZEROUPPER
	RET

// func tanhVec(dst, src []float64)
TEXT ·tanhVec(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX

tanhloop:
	CMPQ    CX, $4
	JLT     tanhtail
	VMOVUPD (SI), Y9
	TANH4
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     tanhloop

tanhtail:
	TESTQ CX, CX
	JZ    tanhdone
	TAILMASK
	VMASKMOVPD (SI), Y15, Y9
	TANH4
	VMASKMOVPD Y3, Y15, (DI)

tanhdone:
	VZEROUPPER
	RET

// SKIPZERO broadcasts x[i] (at R12) into Y4 and jumps to next when it is
// zero. Unordered (NaN) is not zero, as in Go's x == 0.
#define SKIPZERO(next) \
	VBROADCASTSD (R12), Y4; \
	VUCOMISD     X14, X4;   \
	JNE          3(PC);     \
	JPS          2(PC);     \
	JMP          next

// MAC adds x (Y4) times the four weights at off(R13) to acc. The product is
// w*x and the sum product+acc, the portable loop's operand order, which
// decides the NaN payload that survives when both operands are NaN.
#define MAC(acc, tmp, off) \
	VMOVUPD off(R13), tmp; \
	VMULPD  Y4, tmp, tmp;  \
	VADDPD  acc, tmp, acc

// func gemvRowsVec(z, x, w []float64)
//
// Columns go in blocks of 16 (four accumulators), then 4, then a masked
// block of 1-3 lanes; each block runs every row of w, in order, over its
// columns, so each z[j] sums its terms in input order.
TEXT ·gemvRowsVec(SB), NOSPLIT, $0-72
	MOVQ z_base+0(FP), R10
	MOVQ z_len+8(FP), R9
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), BX
	MOVQ w_base+48(FP), R11
	MOVQ R9, R8
	SHLQ $3, R8 // row stride in bytes
	VXORPD X14, X14, X14

block16:
	CMPQ    R9, $16
	JLT     block4
	VMOVUPD 0(R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	MOVQ    SI, R12
	MOVQ    R11, R13
	MOVQ    BX, AX

row16:
	TESTQ AX, AX
	JZ    store16
	SKIPZERO(next16)
	MAC(Y0, Y5, 0)
	MAC(Y1, Y6, 32)
	MAC(Y2, Y7, 64)
	MAC(Y3, Y8, 96)

next16:
	ADDQ $8, R12
	ADDQ R8, R13
	DECQ AX
	JMP  row16

store16:
	VMOVUPD Y0, 0(R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	ADDQ    $128, R10
	ADDQ    $128, R11
	SUBQ    $16, R9
	JMP     block16

block4:
	CMPQ    R9, $4
	JLT     masked
	VMOVUPD (R10), Y0
	MOVQ    SI, R12
	MOVQ    R11, R13
	MOVQ    BX, AX

row4:
	TESTQ AX, AX
	JZ    store4
	SKIPZERO(next4)
	MAC(Y0, Y5, 0)

next4:
	ADDQ $8, R12
	ADDQ R8, R13
	DECQ AX
	JMP  row4

store4:
	VMOVUPD Y0, (R10)
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $4, R9
	JMP     block4

masked:
	TESTQ R9, R9
	JZ    end
	MOVQ  R9, CX
	TAILMASK
	VMASKMOVPD (R10), Y15, Y0
	MOVQ  SI, R12
	MOVQ  R11, R13
	MOVQ  BX, AX

rowm:
	TESTQ AX, AX
	JZ    storem
	SKIPZERO(nextm)
	VMASKMOVPD (R13), Y15, Y5
	VMULPD     Y4, Y5, Y5
	VADDPD     Y0, Y5, Y0

nextm:
	ADDQ $8, R12
	ADDQ R8, R13
	DECQ AX
	JMP  rowm

storem:
	VMASKMOVPD Y0, Y15, (R10)

end:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
