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
