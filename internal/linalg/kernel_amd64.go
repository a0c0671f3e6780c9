//go:build amd64

package linalg

// kern4x8asm is the AVX2+FMA micro-kernel in kernel_amd64.s: the 4×8
// c tile held in eight ymm accumulators, one VFMADD231PD per (row,
// half-tile) per k. VFMADD's single rounding matches math.FMA exactly,
// which is what keeps this path bit-identical to goKern4x8.
//
//go:noescape
func kern4x8asm(kc int, a *float64, lda int, b *float64, c *float64, ldc int)

// addBox8asm is the AVX body of AddBox8 in kernel_amd64.s: blocks
// runs of eight dst samples, each held in two ymm accumulators across
// all taps, one VMULPD then one VADDPD per tap and half-block.
//
//go:noescape
func addBox8asm(dst *float64, src *float64, frac float64, blocks int, taps int)

// polarNorm4asm is the AVX2 body of PolarNorm in kernel_amd64.s:
// blocks runs of four lanes, each through archLog's steps, then the
// divide, square root and multiplies of RNG.Norm.
//
//go:noescape
func polarNorm4asm(dst *float64, u *float64, s *float64, blocks int)

// rampPulse4asm is the AVX body of RampPulse3 in kernel_amd64.s:
// blocks runs of four samples, each loading p, x and e once for all
// three kernels, then per kernel two VMULPD, one more VMULPD and one
// VADDPD.
//
//go:noescape
func rampPulse4asm(k0, k1, k2, p, x, e *float64, sa, da *[3]float64, blocks int)

// cpuHasAVX2FMA reports whether the CPU and OS support AVX2 and FMA3
// (CPUID feature bits plus XGETBV confirming the OS saves ymm state).
// Implemented in kernel_amd64.s; no x/sys/cpu dependency.
func cpuHasAVX2FMA() bool

// useAsmKern gates the assembly kernels. A variable, not a const, so
// tests can force the portable paths and assert bit equality.
var useAsmKern = cpuHasAVX2FMA()

// SetAsmKernels turns the assembly kernels on (where the CPU has
// AVX2+FMA) or off, and reports whether they were on. Results are the
// same bits either way; the switch lets other packages' tests prove it.
//
//lint:allow deadexport fakequakes tests call it to run Phase C synthesis on both kernel paths
func SetAsmKernels(on bool) bool {
	was := useAsmKern
	//lint:allow globalstate a kernel switch, not run state: both paths give the same bits, and only tests flip it
	useAsmKern = on && cpuHasAVX2FMA()
	return was
}

// kern4x8 applies one micro-tile update: c[0..4)[0..8) extended by the
// kc-term fused chain against packed b. a is a 4×kc window with row
// stride lda; b is a packed gemmNR-wide tile, k-major; c has row
// stride ldc.
func kern4x8(kc int, a []float64, lda int, b []float64, c []float64, ldc int) {
	if kc <= 0 {
		return
	}
	if useAsmKern {
		kern4x8asm(kc, &a[0], lda, &b[0], &c[0], ldc)
		return
	}
	goKern4x8(kc, a, lda, b, c, ldc)
}

// addBox8 runs AddBox8 over windows it has already sliced to exactly
// len(dst) and len(dst)+taps−1 samples.
func addBox8(dst, src []float64, frac float64, taps int) {
	if useAsmKern {
		addBox8asm(&dst[0], &src[0], frac, len(dst)/8, taps)
		return
	}
	goAddBox8(dst, src, frac, taps)
}

// polarNorm runs PolarNorm over windows it has already sliced to
// len(dst): whole blocks of four on AVX2, the rest in Go.
func polarNorm(dst, u, s []float64) {
	if n4 := len(dst) &^ 3; useAsmKern && n4 > 0 {
		polarNorm4asm(&dst[0], &u[0], &s[0], n4/4)
		dst, u, s = dst[n4:], u[n4:], s[n4:]
	}
	goPolarNorm(dst, u, s)
}

// rampPulse3 runs RampPulse3 over windows it has already sliced to
// len(k0): whole blocks of four on AVX, the rest in Go.
func rampPulse3(k0, k1, k2 []float64, sa, da *[3]float64, p, x, e []float64) {
	if n4 := len(k0) &^ 3; useAsmKern && n4 > 0 {
		rampPulse4asm(&k0[0], &k1[0], &k2[0], &p[0], &x[0], &e[0], sa, da, n4/4)
		k0, k1, k2, p, x, e = k0[n4:], k1[n4:], k2[n4:], p[n4:], x[n4:], e[n4:]
	}
	goRampPulse3(k0, k1, k2, sa, da, p, x, e)
}
