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
