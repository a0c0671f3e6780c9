package linalg

import "math"

// PolarNorm finishes polar-method normals drawn by sim's PolarFill:
//
//	dst[i] = u[i] * math.Sqrt(-2*math.Log(s[i])/s[i])
//
// Norm's own expression, so dst[i] holds the bits the stream's i-th
// Norm() returns. On amd64 with AVX2, four lanes at a time go through
// an assembly body that repeats math.Log's amd64 code (archLog)
// operation by operation, then the same divide, square root and
// multiplies; the last < 4 lanes, and every lane elsewhere, call
// math.Log itself.
//
// The domain is 0 < s[i] < 1, which is exactly what PolarFill yields:
// every such s from the RNG is at least 2⁻¹⁰⁴, a normal number. The
// assembly body skips archLog's branches for zero, negative, infinite
// and NaN input, which that domain never holds. u and s must hold at
// least len(dst) values; dst may be u or s itself.
func PolarNorm(dst, u, s []float64) {
	n := len(dst)
	polarNorm(dst[:n:n], u[:n:n], s[:n:n])
}

// goPolarNorm is the portable PolarNorm body.
func goPolarNorm(dst, u, s []float64) {
	u, s = u[:len(dst)], s[:len(dst)]
	for i := range dst {
		dst[i] = u[i] * math.Sqrt(-2*math.Log(s[i])/s[i])
	}
}
