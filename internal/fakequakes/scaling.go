// Package fakequakes reimplements the computational core of MudPy's
// FakeQuakes module (Melgar et al.): semistochastic kinematic rupture
// generation on a discretized fault, Green's-function synthesis, and
// high-rate GNSS displacement waveforms, for large (Mw 7.5+) events.
//
// The original is Python/MPI; this is a from-scratch Go implementation
// of the same pipeline stages, deterministic given a seed. It produces
// the Fig. 1-style data products and defines the per-job work units
// (rupture jobs, Green's-function jobs, waveform jobs) that the FDW
// workflow parallelizes.
package fakequakes

import (
	"fmt"
	"math"
)

// ShearModulusPa is the crustal rigidity used for moment computations.
const ShearModulusPa = 30e9 // 30 GPa, standard for subduction interfaces

// Moment returns the seismic moment M0 (N·m) for moment magnitude mw,
// per the Hanks & Kanamori (1979) definition.
func Moment(mw float64) float64 {
	return math.Pow(10, 1.5*mw+9.1)
}

// Magnitude is the inverse of Moment.
func Magnitude(m0 float64) float64 {
	if m0 <= 0 {
		return math.Inf(-1)
	}
	return (math.Log10(m0) - 9.1) / 1.5
}

// RuptureDims holds scaling-law rupture dimensions.
type RuptureDims struct {
	LengthKm float64 // along strike
	WidthKm  float64 // down dip
}

// ScalingLaw returns median subduction-interface rupture dimensions for
// magnitude mw, following the Blaser et al. (2010) regressions that
// MudPy uses for its FakeQuakes target patches:
//
//	log10 L = -2.37 + 0.57 Mw
//	log10 W = -1.86 + 0.46 Mw
func ScalingLaw(mw float64) RuptureDims {
	return RuptureDims{
		LengthKm: math.Pow(10, -2.37+0.57*mw),
		WidthKm:  math.Pow(10, -1.86+0.46*mw),
	}
}

// MeanSlip returns the mean slip (m) needed for a rupture of magnitude
// mw over area areaKm2.
func MeanSlip(mw, areaKm2 float64) (float64, error) {
	if areaKm2 <= 0 {
		return 0, fmt.Errorf("fakequakes: non-positive rupture area %v km²", areaKm2)
	}
	areaM2 := areaKm2 * 1e6
	return Moment(mw) / (ShearModulusPa * areaM2), nil
}

// RiseTime returns the local rise time (s) for a subfault with the
// given slip (m), using the Sommerville et al.-style cube-root scaling
// MudPy applies: tau = k * slip^(1/3), floored to a minimum.
func RiseTime(slipM float64) float64 {
	if slipM <= 0 {
		return 1
	}
	tau := 2.0 * math.Cbrt(slipM)
	if tau < 1 {
		tau = 1
	}
	return tau
}

// RuptureVelocity returns the kinematic rupture-front speed (km/s) at a
// given depth, slowing in the shallow low-rigidity zone as MudPy's
// multipliers do.
func RuptureVelocity(depthKm float64) float64 {
	const vs = 3.1 // km/s, reference shear-wave fraction
	switch {
	case depthKm < 10:
		return 0.6 * vs
	case depthKm < 20:
		return 0.75 * vs
	default:
		return 0.8 * vs
	}
}

// PatchCorrelationLengths returns the von Karman / exponential
// correlation lengths (km) for slip heterogeneity, 0.17·L along strike
// and 0.34·W down dip after Melgar & Hayes (2019), applied to the
// *realized* patch dimensions — the scaling-law extents after
// rounding to whole subfaults and clamping to the mesh. The covariance
// only ever sees the quantized patch, so deriving the lengths from it
// (instead of the continuous law, which varies with every digit of Mw)
// makes the slip covariance — and the factor-cache key built from it —
// invariant across the whole magnitude band that rounds to one patch
// shape: a Mw 8.30 and a Mw 8.33 rupture on the same mesh share a
// Cholesky factor instead of paying two O(n³) factorizations.
func PatchCorrelationLengths(nAlong, nDown int, subfaultLenKm, subfaultWidKm float64) (alongKm, downKm float64) {
	return 0.17 * float64(nAlong) * subfaultLenKm, 0.34 * float64(nDown) * subfaultWidKm
}
