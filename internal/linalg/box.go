package linalg

import "fmt"

// AddBox8 adds a box-smeared, frac-weighted window of src into dst,
// eight samples at a time. With m = taps−1, each dst[i] receives
//
//	dst[i] += frac·src[i+m], then frac·src[i+m−1], …, then frac·src[i]
//
// in that order, each term computed as Go computes the lag-outer loop
// `for lag := 0; lag < taps; lag++ { dst[i] += frac*src[i+m−lag] }`
// (on amd64, one rounded multiply then one rounded add).
// Only the order across samples differs, which no sample can see. The
// eight accumulators stay in registers across all taps, so dst is
// loaded and stored once per block rather than once per tap.
//
// len(dst) must be a multiple of 8 and taps at least 1; src must hold
// len(dst)+taps−1 samples. The windows are sliced here, before any
// pointer reaches the assembly body, so a short src panics in Go
// instead of being read past its end.
func AddBox8(dst, src []float64, frac float64, taps int) {
	n := len(dst)
	if n%8 != 0 || taps < 1 {
		panic(fmt.Sprintf("linalg: AddBox8 over %d samples with %d taps", n, taps))
	}
	if n == 0 {
		return
	}
	addBox8(dst[:n:n], src[:n+taps-1], frac, taps)
}

// goAddBox8 is the portable AddBox8 body. Each term is written
// `acc += frac * s[j]`, the reference loop's own expression, so the
// compiler rounds it exactly as it rounds the reference on every
// architecture: product then sum on amd64 (which the VMULPD+VADDPD
// assembly matches), fused on arm64 (where no assembly runs).
func goAddBox8(dst, src []float64, frac float64, taps int) {
	for i := 0; i+8 <= len(dst); i += 8 {
		d := dst[i : i+8 : i+8]
		a0, a1, a2, a3, a4, a5, a6, a7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
		for t := i + taps - 1; t >= i; t-- {
			s := src[t : t+8 : t+8]
			a0 += frac * s[0]
			a1 += frac * s[1]
			a2 += frac * s[2]
			a3 += frac * s[3]
			a4 += frac * s[4]
			a5 += frac * s[5]
			a6 += frac * s[6]
			a7 += frac * s[7]
		}
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
}

// RampPulse3 expands the three components of a Green's-function
// kernel from per-sample tables they share: for j < len(k[0]) and
// c < 3,
//
//	k[c][j] = float64(sa[c]·p[j]) + float64(float64(da[c]·x[j])·e[j])
//
// — a ramp to a static offset plus a transient pulse riding on it —
// each product and the sum rounded on its own, as Go computes that
// expression on every architecture: the conversions forbid fusing.
// The three k must be equally long and p, x and e at least as long;
// they are sliced here, before any pointer reaches the assembly body,
// so a short one panics in Go.
func RampPulse3(k *[3][]float64, sa, da *[3]float64, p, x, e []float64) {
	n := len(k[0])
	if len(k[1]) != n || len(k[2]) != n {
		panic(fmt.Sprintf("linalg: RampPulse3 over kernels of %d, %d and %d samples", n, len(k[1]), len(k[2])))
	}
	rampPulse3(k[0][:n:n], k[1][:n:n], k[2][:n:n], sa, da, p[:n:n], x[:n:n], e[:n:n])
}

// goRampPulse3 is the portable RampPulse3 body, written as its
// specification. The assembly body computes the same roundings four
// samples at a time.
func goRampPulse3(k0, k1, k2 []float64, sa, da *[3]float64, p, x, e []float64) {
	k1, k2 = k1[:len(k0)], k2[:len(k0)]
	p, x, e = p[:len(k0)], x[:len(k0)], e[:len(k0)]
	for j := range k0 {
		pj, xj, ej := p[j], x[j], e[j]
		k0[j] = float64(sa[0]*pj) + float64(float64(da[0]*xj)*ej)
		k1[j] = float64(sa[1]*pj) + float64(float64(da[1]*xj)*ej)
		k2[j] = float64(sa[2]*pj) + float64(float64(da[2]*xj)*ej)
	}
}
