#include "textflag.h"

// func kern4x8asm(kc int, a *float64, lda int, b *float64, c *float64, ldc int)
//
// 4×8 GEMM micro-tile: c += a·b for a 4×kc A window (row stride lda),
// a packed kc×8 B tile (unit k-major stride), and a 4×8 C window (row
// stride ldc). The eight accumulators live in Y0–Y7 for the whole k
// loop; per k, one 8-wide B row load and four broadcast-A FMAs. Each C
// element sees one VFMADD231PD per k in increasing k order — a single
// rounding per term, exactly math.FMA — which is the bit-determinism
// contract blocked_test.go pins against goKern4x8.
TEXT ·kern4x8asm(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	SHLQ $3, R8            // row stride in bytes
	MOVQ b+24(FP), DI
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R10
	SHLQ $3, R10

	// Load the 4×8 C tile: two ymm halves per row.
	MOVQ DX, BX
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	ADDQ R10, BX
	VMOVUPD (BX), Y2
	VMOVUPD 32(BX), Y3
	ADDQ R10, BX
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	ADDQ R10, BX
	VMOVUPD (BX), Y6
	VMOVUPD 32(BX), Y7

	// A row pointers for the four tile rows.
	LEAQ (SI)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	LEAQ (R13)(R8*1), AX

loop:
	VMOVUPD (DI), Y8       // B[k][0:4]
	VMOVUPD 32(DI), Y9     // B[k][4:8]
	VBROADCASTSD (SI), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VBROADCASTSD (R12), Y11
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD (R13), Y12
	VFMADD231PD Y8, Y12, Y4
	VFMADD231PD Y9, Y12, Y5
	VBROADCASTSD (AX), Y13
	VFMADD231PD Y8, Y13, Y6
	VFMADD231PD Y9, Y13, Y7
	ADDQ $8, SI
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, AX
	ADDQ $64, DI           // packed B: 8 float64 per k
	DECQ CX
	JNZ  loop

	MOVQ DX, BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	ADDQ R10, BX
	VMOVUPD Y2, (BX)
	VMOVUPD Y3, 32(BX)
	ADDQ R10, BX
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	ADDQ R10, BX
	VMOVUPD Y6, (BX)
	VMOVUPD Y7, 32(BX)
	VZEROUPPER
	RET

// func addBox8asm(dst *float64, src *float64, frac float64, blocks int, taps int)
//
// AddBox8's block body. For each run of eight dst samples, Y0 and Y1
// hold the accumulators across all taps; tap by tap the src window
// steps back one sample, from src[i+taps−1] down to src[i], and each
// half-block gets one VMULPD (the rounded product frac·src) then one
// VADDPD (the rounded sum). It must not use VFMADD: Go's amd64 build
// rounds `acc += frac*x` as product then sum, and goAddBox8 and the
// reference loop have to see the same bits.
TEXT ·addBox8asm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	VBROADCASTSD frac+16(FP), Y15
	MOVQ blocks+24(FP), CX
	MOVQ taps+32(FP), R8
	LEAQ -8(SI)(R8*8), SI  // &src[taps−1]: the first tap of block 0

block:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ SI, AX
	MOVQ R8, DX

tap:
	VMULPD (AX), Y15, Y2
	VMULPD 32(AX), Y15, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	SUBQ $8, AX
	DECQ DX
	JNZ  tap

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  block
	VZEROUPPER
	RET

// func rampPulse4asm(k0, k1, k2, p, x, e *float64, sa, da *[3]float64, blocks int)
//
// RampPulse3's block body. Y10–Y15 hold sa[0..2] and da[0..2], each
// broadcast to four lanes. For each run of four samples, p, x and e
// are loaded once; per kernel c, VMULPD makes sa[c]·p and da[c]·x,
// a third VMULPD multiplies the latter by e, and VADDPD sums them: the
// roundings of goRampPulse3's expression, in its order. It must not
// use VFMADD, which would round the last product and the sum once.
TEXT ·rampPulse4asm(SB), NOSPLIT, $0-72
	MOVQ k0+0(FP), DI
	MOVQ k1+8(FP), R8
	MOVQ k2+16(FP), R9
	MOVQ p+24(FP), SI
	MOVQ x+32(FP), DX
	MOVQ e+40(FP), R10
	MOVQ sa+48(FP), AX
	MOVQ da+56(FP), BX
	MOVQ blocks+64(FP), CX
	VBROADCASTSD 0(AX), Y10
	VBROADCASTSD 8(AX), Y11
	VBROADCASTSD 16(AX), Y12
	VBROADCASTSD 0(BX), Y13
	VBROADCASTSD 8(BX), Y14
	VBROADCASTSD 16(BX), Y15
	XORQ AX, AX            // byte offset of the block

ramp:
	VMOVUPD (SI)(AX*1), Y0  // p
	VMOVUPD (DX)(AX*1), Y1  // x
	VMOVUPD (R10)(AX*1), Y2 // e

	VMULPD Y0, Y10, Y3      // sa[0]·p
	VMULPD Y1, Y13, Y4      // da[0]·x
	VMULPD Y2, Y4, Y4       // (da[0]·x)·e
	VADDPD Y4, Y3, Y3
	VMOVUPD Y3, (DI)(AX*1)

	VMULPD Y0, Y11, Y5
	VMULPD Y1, Y14, Y6
	VMULPD Y2, Y6, Y6
	VADDPD Y6, Y5, Y5
	VMOVUPD Y5, (R8)(AX*1)

	VMULPD Y0, Y12, Y7
	VMULPD Y1, Y15, Y8
	VMULPD Y2, Y8, Y8
	VADDPD Y8, Y7, Y7
	VMOVUPD Y7, (R9)(AX*1)

	ADDQ $32, AX
	DECQ CX
	JNZ  ramp
	VZEROUPPER
	RET

// polarK holds polarNorm4asm's constants, each repeated across the
// four lanes of a ymm so it can be a VEX memory operand. The log
// constants are math/log_amd64.s's, bit for bit.
#define POLARK(off, bits) DATA polarK<>+(off)(SB)/8, $bits; DATA polarK<>+(off+8)(SB)/8, $bits; DATA polarK<>+(off+16)(SB)/8, $bits; DATA polarK<>+(off+24)(SB)/8, $bits
POLARK(0, 0x000FFFFFFFFFFFFF)   // mantissa mask
POLARK(32, 0x3FE0000000000000)  // 0.5
POLARK(64, 0x3FF0000000000000)  // 1.0
POLARK(96, 0x4000000000000000)  // 2.0
POLARK(128, 0x3FE6A09E667F3BCD) // HSqrt2 = √2/2
POLARK(160, 0x4330000000000000) // 2⁵²
POLARK(192, 0x43300000000003FE) // 2⁵² + 1022
POLARK(224, 0x3FE5555555555593) // L1
POLARK(256, 0x3FD999999997FA04) // L2
POLARK(288, 0x3FD2492494229359) // L3
POLARK(320, 0x3FCC71C51D8E78AF) // L4
POLARK(352, 0x3FC7466496CB03DE) // L5
POLARK(384, 0x3FC39A09D078C69F) // L6
POLARK(416, 0x3FC2F112DF3E5244) // L7
POLARK(448, 0x3FE62E42FEE00000) // Ln2Hi
POLARK(480, 0x3DEA39EF35793C76) // Ln2Lo
POLARK(512, 0xC000000000000000) // -2.0
GLOBL polarK<>(SB), RODATA|NOPTR, $544

#define pkMant polarK<>+0(SB)
#define pkHalf polarK<>+32(SB)
#define pkOne polarK<>+64(SB)
#define pkTwo polarK<>+96(SB)
#define pkHSqrt2 polarK<>+128(SB)
#define pkExp52 polarK<>+160(SB)
#define pkKBias polarK<>+192(SB)
#define pkL1 polarK<>+224(SB)
#define pkL2 polarK<>+256(SB)
#define pkL3 polarK<>+288(SB)
#define pkL4 polarK<>+320(SB)
#define pkL5 polarK<>+352(SB)
#define pkL6 polarK<>+384(SB)
#define pkL7 polarK<>+416(SB)
#define pkLn2Hi polarK<>+448(SB)
#define pkLn2Lo polarK<>+480(SB)
#define pkNegTwo polarK<>+512(SB)

// func polarNorm4asm(dst *float64, u *float64, s *float64, blocks int)
//
// PolarNorm's body, four lanes per ymm: dst = u·√(−2·ln s / s). ln s
// is math/log_amd64.s's archLog step by step, each scalar SD operation
// becoming its PD twin on the same operands, so every lane rounds as
// math.Log does on amd64:
//   - f1 and k split the bits as archLog does. The exponent becomes a
//     float through 2⁵² + e − (2⁵² + 1022), exact like CVTSL2SD.
//   - The √2/2 test is archLog's CMPSD predicate 5 (not-less-than),
//     !(HSqrt2 < f1), as VCMPPD predicate 5. That is not pure Go's
//     f1 < Sqrt2/2: the two differ where f1 is exactly √2/2.
//   - Every product and sum is a separate VMULPD or VADDPD/VSUBPD,
//     never VFMADD.
// The lanes are in the domain 0 < s < 1, so archLog's branches for
// zero, negative, infinite and NaN input are left out.
TEXT ·polarNorm4asm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ u+8(FP), SI
	MOVQ s+16(FP), BX
	MOVQ blocks+24(FP), CX
	VMOVUPD pkHSqrt2, Y15

lanes:
	VMOVUPD (BX), Y0            // x = s
	// f1, k := Frexp(x)
	VANDPD  pkMant, Y0, Y1
	VORPD   pkHalf, Y1, Y1      // f1
	VPSRLQ  $52, Y0, Y2
	VPOR    pkExp52, Y2, Y2     // 2⁵² + biased exponent
	VSUBPD  pkKBias, Y2, Y2     // k
	// if !(HSqrt2 < f1) { k -= 1; f1 *= 2 }
	VCMPPD  $5, Y1, Y15, Y3     // ^0 or 0
	VANDPD  pkOne, Y3, Y3       // 1 or 0
	VSUBPD  Y3, Y2, Y2
	VADDPD  pkOne, Y3, Y3       // 2 or 1
	VMULPD  Y3, Y1, Y1
	// f := f1 - 1
	VSUBPD  pkOne, Y1, Y1       // f
	// s := f / (2 + f)
	VADDPD  pkTwo, Y1, Y3
	VDIVPD  Y3, Y1, Y3          // s
	VMULPD  Y3, Y3, Y4          // s2 := s * s
	VMULPD  Y4, Y4, Y5          // s4 := s2 * s2
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD  pkL7, Y5, Y6
	VADDPD  pkL5, Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  pkL3, Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  pkL1, Y6, Y6
	VMULPD  Y6, Y4, Y4          // t1
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD  pkL6, Y5, Y6
	VADDPD  pkL4, Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  pkL2, Y6, Y6
	VMULPD  Y6, Y5, Y5          // t2
	VADDPD  Y5, Y4, Y4          // R := t1 + t2
	// hfsq := 0.5 * f * f
	VMULPD  pkHalf, Y1, Y6
	VMULPD  Y1, Y6, Y6          // hfsq
	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD  Y6, Y4, Y4          // hfsq+R
	VMULPD  Y4, Y3, Y3          // s*(hfsq+R)
	VMULPD  pkLn2Lo, Y2, Y4     // k*Ln2Lo
	VADDPD  Y4, Y3, Y3
	VSUBPD  Y3, Y6, Y6
	VSUBPD  Y1, Y6, Y6
	VMULPD  pkLn2Hi, Y2, Y2     // k*Ln2Hi
	VSUBPD  Y6, Y2, Y2          // ln x
	// u * math.Sqrt(-2*ln x/x)
	VMULPD  pkNegTwo, Y2, Y2
	VDIVPD  Y0, Y2, Y2
	VSQRTPD Y2, Y2
	VMULPD  (SI), Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ $32, BX
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  lanes
	VZEROUPPER
	RET

// func cpuHasAVX2FMA() bool
//
// CPUID.1:ECX must report FMA, OSXSAVE and AVX; XGETBV(0) must show
// the OS saving xmm+ymm state; CPUID.(7,0):EBX must report AVX2. Any
// AVX-capable CPU implements leaf 7, so no max-leaf probe is needed.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<12 | 1<<27 | 1<<28), R8
	CMPL R8, $(1<<12 | 1<<27 | 1<<28)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX            // XCR0: SSE (bit 1) and AVX (bit 2) state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX       // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
