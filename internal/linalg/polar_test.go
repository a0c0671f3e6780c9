package linalg

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// polarSpec is PolarNorm's specification: RNG.Norm's transform, lane
// by lane, through math.Log.
func polarSpec(u, s []float64) []float64 {
	want := make([]float64, len(u))
	for i := range u {
		want[i] = u[i] * math.Sqrt(-2*math.Log(s[i])/s[i])
	}
	return want
}

// polarEdges are the s values at the log's boundaries: mantissas of
// exactly √2/2, where archLog's not-less-than test and pure Go's
// less-than test take different branches (both round to the same log
// for normal s), and their neighbours; the largest s below 1; the
// smallest s the RNG can yield; and powers of two, where the exponent
// alone carries the log.
func polarEdges() []float64 {
	var out []float64
	for _, e := range []int{0, -1, -7, -52, -103} {
		m := math.Ldexp(math.Sqrt2/2, e)
		out = append(out, m, math.Nextafter(m, 0), math.Nextafter(m, 1))
	}
	out = append(out, 1-0x1p-53, 0x1p-104, 0x1p-1022)
	for e := 1; e <= 104; e += 7 {
		out = append(out, math.Ldexp(1, -e))
	}
	return out
}

// TestPolarNormMatchesMathLog requires PolarNorm, on the AVX2 body and
// the portable one, to reproduce math.Log's transform bit for bit on
// the edge values, at every length from 0 to 9 (whole blocks of four
// and a portable tail), written to a fresh dst and in place.
func TestPolarNormMatchesMathLog(t *testing.T) {
	defer SetAsmKernels(SetAsmKernels(true))
	edges := polarEdges()
	for _, asm := range []bool{true, false} {
		SetAsmKernels(asm)
		r := testRNG(7)
		for off := range edges {
			for n := 0; n <= 9; n++ {
				u := make([]float64, n)
				s := make([]float64, n)
				for i := range s {
					u[i] = r.next()
					s[i] = edges[(off+i)%len(edges)]
				}
				want := polarSpec(u, s)
				got := make([]float64, n)
				PolarNorm(got, u, s)
				bitsEqual(t, fmt.Sprintf("asm %v: PolarNorm from edge %d, %d lanes", asm, off, n), got, want)
				PolarNorm(u, u, s)
				bitsEqual(t, fmt.Sprintf("asm %v: in-place PolarNorm from edge %d, %d lanes", asm, off, n), u, want)
			}
		}
	}
}

// TestPolarNormPanicsOnShortInputs pins the memory-safety contract: u
// or s shorter than dst panics in Go before any assembly runs.
func TestPolarNormPanicsOnShortInputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		u, s int
	}{{"u one short", 7, 8}, {"s one short", 8, 7}} {
		func() {
			defer func() {
				if msg := panicText(recover()); !strings.Contains(msg, "slice bounds out of range") {
					t.Fatalf("%s: panic %q", tc.name, msg)
				}
			}()
			PolarNorm(make([]float64, 8), make([]float64, tc.u), make([]float64, tc.s))
		}()
	}
}

// FuzzPolarNorm checks PolarNorm, asm on and off, against math.Log on
// any s in (0, 1), subnormals included: the fuzzer's bits, mod the
// bit pattern of 1.0, are one s and its u, repeated across lanes with
// a step so neighbouring lanes differ.
func FuzzPolarNorm(f *testing.F) {
	for _, s := range polarEdges() {
		f.Add(math.Float64bits(s), uint64(3), uint8(9))
	}
	f.Add(uint64(1), uint64(0), uint8(5))
	f.Fuzz(func(t *testing.T, sBits, step uint64, n uint8) {
		const one = 0x3FF0000000000000
		u := make([]float64, n%17)
		s := make([]float64, len(u))
		for i := range s {
			s[i] = math.Float64frombits(1 + (sBits+uint64(i)*step)%(one-1))
			u[i] = 2*math.Float64frombits(0x3FF0000000000000|(sBits*uint64(i+1))>>12) - 3
		}
		want := polarSpec(u, s)
		for _, asm := range []bool{true, false} {
			was := SetAsmKernels(asm)
			got := make([]float64, len(u))
			PolarNorm(got, u, s)
			SetAsmKernels(was)
			bitsEqual(t, fmt.Sprintf("PolarNorm asm=%v", asm), got, want)
		}
	})
}

// BenchmarkPolarNorm times the transform over one 256-lane chunk, as
// Phase C's noise loop calls it, on each body.
func BenchmarkPolarNorm(b *testing.B) {
	r := testRNG(3)
	u := make([]float64, 256)
	s := make([]float64, 256)
	for i := range s {
		u[i] = r.next()
		s[i] = math.Abs(r.next())*0.999 + 1e-9
	}
	dst := make([]float64, 256)
	for _, asm := range []bool{true, false} {
		b.Run(fmt.Sprintf("asm=%v", asm), func(b *testing.B) {
			defer SetAsmKernels(SetAsmKernels(asm))
			for i := 0; i < b.N; i++ {
				PolarNorm(dst, u, s)
			}
		})
	}
}
