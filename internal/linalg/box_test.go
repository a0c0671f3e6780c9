package linalg

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// boxSpecValues are the sample values boxInputs draws from besides
// ordinary ones: signed zeros, a subnormal, infinities and NaN.
var boxSpecValues = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1), math.NaN()}

// boxInputs returns a dst of n samples and a src of n+taps−1 samples;
// with specials, about one sample in eight is a boxSpecValues entry.
func boxInputs(n, taps int, seed uint64, specials bool) (dst, src []float64) {
	r := testRNG(seed)
	draw := func() float64 {
		v := r.next()
		if specials && v > 0.75 {
			return boxSpecValues[int((v-0.75)*4*float64(len(boxSpecValues)))%len(boxSpecValues)]
		}
		return v
	}
	dst = make([]float64, n)
	for i := range dst {
		dst[i] = draw()
	}
	src = make([]float64, n+taps-1)
	for i := range src {
		src[i] = draw()
	}
	return dst, src
}

// boxEqual fails unless got and want hold the same float64 bits, NaN
// payloads aside: which NaN a sum of two NaNs returns follows the
// operand order the compiler happened to pick for a commutative add.
func boxEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", name, i, got[i], want[i])
		}
	}
}

// lagLoopBox is AddBox8's specification: the lag-outer loop it
// reorders, one pass over dst per tap.
func lagLoopBox(dst, src []float64, frac float64, taps int) {
	for lag := 0; lag < taps; lag++ {
		for i := range dst {
			dst[i] += frac * src[i+taps-1-lag]
		}
	}
}

// TestAddBox8MatchesLagLoop requires AddBox8, on whichever kernel this
// host dispatches to, to reproduce the lag-outer loop bit for bit, for
// one and many taps, one and many blocks, with and without
// non-finite samples.
func TestAddBox8MatchesLagLoop(t *testing.T) {
	for _, n := range []int{0, 8, 16, 64, 512} {
		for _, taps := range []int{1, 2, 7, 31, 200} {
			for _, specials := range []bool{false, true} {
				dst, src := boxInputs(n, taps, uint64(n*1000+taps), specials)
				want := append([]float64(nil), dst...)
				frac := -0.37
				AddBox8(dst, src, frac, taps)
				lagLoopBox(want, src, frac, taps)
				boxEqual(t, "AddBox8 vs lag loop", dst, want)
			}
		}
	}
}

// TestAddBox8PanicsOnShortWindows pins the memory-safety contract: a
// window shorter than n+taps−1, a dst that is not whole blocks, or no
// taps panics in Go before any assembly runs.
func TestAddBox8PanicsOnShortWindows(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n, src, taps int
		want         string
	}{
		{"src one short", 16, 16 + 3 - 2, 3, "slice bounds out of range"},
		{"partial block", 12, 20, 3, "AddBox8 over 12 samples"},
		{"no taps", 8, 8, 0, "with 0 taps"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
				if msg := panicText(r); !strings.Contains(msg, tc.want) {
					t.Fatalf("%s: panic %q, want %q", tc.name, msg, tc.want)
				}
			}()
			AddBox8(make([]float64, tc.n), make([]float64, tc.src), 1, tc.taps)
		}()
	}
}

func panicText(r any) string {
	if err, ok := r.(error); ok {
		return err.Error()
	}
	s, _ := r.(string)
	return s
}

// BenchmarkAddBox8 times one Phase C body run at the fq121 shape:
// 320 samples after the S arrival, with a short and a long rise time.
func BenchmarkAddBox8(b *testing.B) {
	for _, taps := range []int{4, 24} {
		b.Run(fmt.Sprintf("taps=%d", taps), func(b *testing.B) {
			dst, src := boxInputs(320, taps, 1, false)
			for i := 0; i < b.N; i++ {
				AddBox8(dst, src, 1e-3, taps)
			}
		})
	}
}

// rampInputs returns n-sample tables p, x, e and amplitudes sa, da;
// with specials, about one value in eight is a boxSpecValues entry.
func rampInputs(n int, seed uint64, specials bool) (sa, da [3]float64, p, x, e []float64) {
	r := testRNG(seed)
	draw := func() float64 {
		v := r.next()
		if specials && v > 0.75 {
			return boxSpecValues[int((v-0.75)*4*float64(len(boxSpecValues)))%len(boxSpecValues)]
		}
		return v - 0.5
	}
	for c := range sa {
		sa[c], da[c] = draw(), draw()
	}
	p, x, e = make([]float64, n), make([]float64, n), make([]float64, n)
	for j := range p {
		p[j], x[j], e[j] = draw(), draw(), draw()
	}
	return sa, da, p, x, e
}

// TestRampPulse3MatchesExpression requires RampPulse3, on whichever
// body this host dispatches to and on the portable one, to reproduce
// its defining expression bit for bit (NaN payloads aside) at lengths
// on both sides of a block of four, with and without non-finite
// values, writing nothing past its kernels.
func TestRampPulse3MatchesExpression(t *testing.T) {
	for _, asm := range []bool{true, false} {
		was := SetAsmKernels(asm)
		for _, n := range []int{0, 1, 3, 4, 5, 8, 9, 511, 512} {
			for _, specials := range []bool{false, true} {
				sa, da, p, x, e := rampInputs(n+2, uint64(n), specials)
				var k [3][]float64
				for c := range k {
					k[c] = make([]float64, n+1)
					k[c][n] = 7 // a guard sample past the window
				}
				RampPulse3(&[3][]float64{k[0][:n], k[1][:n], k[2][:n]}, &sa, &da, p, x, e)
				for c := range k {
					want := make([]float64, n+1)
					for j := range n {
						want[j] = float64(sa[c]*p[j]) + float64(float64(da[c]*x[j])*e[j])
					}
					want[n] = 7
					boxEqual(t, fmt.Sprintf("asm %v n %d component %d", asm, n, c), k[c], want)
				}
			}
		}
		SetAsmKernels(was)
	}
}

// TestRampPulse3PanicsOnShortWindows: kernels of unequal length, or a
// table shorter than them, panic in Go before any assembly runs.
func TestRampPulse3PanicsOnShortWindows(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		n1, np     int
	}{
		{name: "kernels of unequal length", n1: 7, np: 8, want: "RampPulse3 over kernels of 8, 7 and 8 samples"},
		{name: "table one short", n1: 8, np: 7, want: "slice bounds out of range"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
				if msg := panicText(r); !strings.Contains(msg, tc.want) {
					t.Fatalf("%s: panic %q, want %q", tc.name, msg, tc.want)
				}
			}()
			k := [3][]float64{make([]float64, 8), make([]float64, tc.n1), make([]float64, 8)}
			var sa, da [3]float64
			RampPulse3(&k, &sa, &da, make([]float64, tc.np), make([]float64, 8), make([]float64, 8))
		}()
	}
}

// BenchmarkRampPulse3 times one Phase C expansion at the fq121 shape:
// the 320 samples after an S arrival, three components.
func BenchmarkRampPulse3(b *testing.B) {
	sa, da, p, x, e := rampInputs(320, 1, false)
	k := [3][]float64{make([]float64, 320), make([]float64, 320), make([]float64, 320)}
	for i := 0; i < b.N; i++ {
		RampPulse3(&k, &sa, &da, p, x, e)
	}
}
