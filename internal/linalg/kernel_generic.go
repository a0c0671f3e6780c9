//go:build !amd64

package linalg

// Portable fallback: every architecture without the assembly kernels
// runs goKern4x8, whose math.FMA chains round exactly like the amd64
// VFMADD path — the blocked kernels are bit-identical across
// architectures, not just across worker counts — goAddBox8, which
// rounds as the compiler rounds the reference synthesis loop here, and
// goPolarNorm, which calls math.Log as RNG.Norm does.

const useAsmKern = false

func kern4x8(kc int, a []float64, lda int, b []float64, c []float64, ldc int) {
	if kc <= 0 {
		return
	}
	goKern4x8(kc, a, lda, b, c, ldc)
}

// SetAsmKernels reports false: there are no assembly kernels to switch.
func SetAsmKernels(bool) bool { return false }

func addBox8(dst, src []float64, frac float64, taps int) {
	goAddBox8(dst, src, frac, taps)
}

func polarNorm(dst, u, s []float64) {
	goPolarNorm(dst, u, s)
}

func rampPulse3(k0, k1, k2 []float64, sa, da *[3]float64, p, x, e []float64) {
	goRampPulse3(k0, k1, k2, sa, da, p, x, e)
}
