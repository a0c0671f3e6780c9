//go:build amd64

package linalg

import "testing"

// TestAsmKernelBitIdenticalToPortable forces the portable math.FMA
// micro-kernel and checks the assembly path produced exactly the same
// bits — the cross-architecture half of the determinism contract: a
// result computed on an AVX2 host must match one from any other
// machine bit for bit.
func TestAsmKernelBitIdenticalToPortable(t *testing.T) {
	if !useAsmKern {
		t.Skip("no AVX2+FMA on this host")
	}
	for _, s := range [][3]int{{64, 64, 64}, {37, 129, 53}, {257, 31, 260}} {
		a := randomMatrix(s[0], s[1], uint64(s[0]))
		b := randomMatrix(s[1], s[2], uint64(s[1])+3)
		asm, err := a.Mul(b)
		if err != nil {
			t.Fatal(err)
		}
		useAsmKern = false
		pure, err := a.Mul(b)
		useAsmKern = true
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "asm-vs-portable", pure.Data, asm.Data)

		m := spdMatrix(s[0])
		lAsm, err := Cholesky(m)
		if err != nil {
			t.Fatal(err)
		}
		useAsmKern = false
		lPure, err := Cholesky(m)
		useAsmKern = true
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "cholesky asm-vs-portable", lPure.Data, lAsm.Data)
	}
}

// TestAsmAddBox8BitIdenticalToPortable: the VMULPD+VADDPD body and
// goAddBox8 agree bit for bit on inputs with infinities and NaNs.
func TestAsmAddBox8BitIdenticalToPortable(t *testing.T) {
	if !useAsmKern {
		t.Skip("no AVX2+FMA on this host")
	}
	for _, taps := range []int{1, 3, 8, 29, 257} {
		for _, frac := range []float64{0.125, -3.7e-5, 1e300} {
			dst, src := boxInputs(8*37, taps, uint64(taps), true)
			pure := append([]float64(nil), dst...)
			AddBox8(dst, src, frac, taps)
			useAsmKern = false
			AddBox8(pure, src, frac, taps)
			useAsmKern = true
			boxEqual(t, "AddBox8 asm-vs-portable", dst, pure)
		}
	}
}

// TestAsmRampPulse3BitIdenticalToPortable: the VMULPD+VADDPD body and
// goRampPulse3 agree bit for bit on inputs with infinities and NaNs.
func TestAsmRampPulse3BitIdenticalToPortable(t *testing.T) {
	if !useAsmKern {
		t.Skip("no AVX2+FMA on this host")
	}
	for _, n := range []int{4, 37, 512} {
		sa, da, p, x, e := rampInputs(n, uint64(n)+5, true)
		var asm, pure [3][]float64
		for c := range asm {
			asm[c], pure[c] = make([]float64, n), make([]float64, n)
		}
		RampPulse3(&asm, &sa, &da, p, x, e)
		useAsmKern = false
		RampPulse3(&pure, &sa, &da, p, x, e)
		useAsmKern = true
		for c := range asm {
			boxEqual(t, "RampPulse3 asm-vs-portable", asm[c], pure[c])
		}
	}
}
