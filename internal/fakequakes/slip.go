package fakequakes

import (
	"fmt"
	"math"

	"fdw/internal/geom"
	"fdw/internal/linalg"
	"fdw/internal/sim"
)

// Kernel selects the spatial correlation model for slip heterogeneity.
type Kernel int

const (
	// Exponential is the anisotropic exponential kernel
	// C(r) = exp(-r), r² = (Δs/as)² + (Δd/ad)².
	Exponential Kernel = iota
	// Gaussian is C(r) = exp(-r²), smoother slip.
	Gaussian
	// VonKarmanApprox approximates the H=0.75 von Karman kernel with a
	// matched-decay blend of exponential and Gaussian terms, avoiding a
	// Bessel-function dependency while keeping the mid-range roughness.
	VonKarmanApprox
)

func (k Kernel) String() string {
	switch k {
	case Exponential:
		return "exponential"
	case Gaussian:
		return "gaussian"
	case VonKarmanApprox:
		return "vonKarman"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

func (k Kernel) value(r float64) float64 {
	switch k {
	case Gaussian:
		return math.Exp(-r * r)
	case VonKarmanApprox:
		return 0.6*math.Exp(-r) + 0.4*math.Exp(-r*r)
	default:
		return math.Exp(-r)
	}
}

// Rupture is one stochastic slip scenario on a fault.
type Rupture struct {
	ID         string
	TargetMw   float64
	ActualMw   float64
	Hypocenter int // subfault index
	// Patch lists the subfault indices participating in the rupture.
	Patch []int
	// SlipM[i] is slip (m) on Patch[i].
	SlipM []float64
	// OnsetS[i] is rupture-front arrival (s) at Patch[i].
	OnsetS []float64
	// RiseS[i] is the local rise time (s) at Patch[i].
	RiseS []float64
}

// MaxSlip returns the peak slip of the scenario.
func (r *Rupture) MaxSlip() float64 {
	var m float64
	for _, s := range r.SlipM {
		if s > m {
			m = s
		}
	}
	return m
}

// Duration returns the rupture duration: last onset plus its rise time.
func (r *Rupture) Duration() float64 {
	var d float64
	for i := range r.OnsetS {
		if t := r.OnsetS[i] + r.RiseS[i]; t > d {
			d = t
		}
	}
	return d
}

// Generator produces stochastic ruptures on a fault, MudPy-style:
// pick a target magnitude, place a scaling-law-sized patch, draw
// log-normal correlated slip from a distance-based covariance, rescale
// to the target moment, and time the rupture front from the hypocenter.
type Generator struct {
	Fault   *geom.Fault
	Dist    *DistanceMatrices
	Kern    Kernel
	MinMw   float64 // target magnitude range, inclusive
	MaxMw   float64
	SigmaLn float64 // log-slip standard deviation (MudPy default ≈ 0.9)
	// Factors recycles slip-covariance Cholesky factors across this
	// Generator's scenarios (see FactorCache). NewGenerator gives it a
	// 16-entry LRU of its own: at the paper-scale meshes a factor is a
	// few MB (n² float64), well under typical per-slot memory.
	Factors   *FactorCache
	faultHash uint64 // memoized faultCovHash of Fault
	maxPatch  int    // guard for covariance size; 0 = unlimited
}

// NewGenerator validates inputs and returns a Generator with MudPy-like
// defaults (Mw 7.8–9.2, sigma 0.9, exponential kernel).
func NewGenerator(f *geom.Fault, d *DistanceMatrices) (*Generator, error) {
	if f == nil || f.NumSubfaults() == 0 {
		return nil, fmt.Errorf("fakequakes: empty fault")
	}
	if d == nil {
		return nil, fmt.Errorf("fakequakes: nil distance matrices")
	}
	if err := d.Validate(f.NumSubfaults(), d.Station.Rows); err != nil {
		return nil, err
	}
	return &Generator{
		Fault:     f,
		Dist:      d,
		Kern:      Exponential,
		MinMw:     7.8,
		MaxMw:     9.2,
		SigmaLn:   0.9,
		Factors:   NewFactorCache(16),
		faultHash: faultCovHash(f),
	}, nil
}

// GenerateMw draws one rupture with a fixed target magnitude.
func (g *Generator) GenerateMw(id string, mw float64, rng *sim.RNG) (*Rupture, error) {
	if mw < 6 || mw > 9.6 {
		return nil, fmt.Errorf("fakequakes: target Mw %.2f outside supported range [6, 9.6]", mw)
	}
	f := g.Fault
	dims := ScalingLaw(mw)

	// Patch extent in cells, clamped to the mesh.
	nAlong := clamp(int(math.Round(dims.LengthKm/f.SubfaultLen)), 2, f.NAlong)
	nDown := clamp(int(math.Round(dims.WidthKm/f.SubfaultWid)), 2, f.NDown)

	// Random patch placement.
	i0 := 0
	if f.NAlong > nAlong {
		i0 = rng.Intn(f.NAlong - nAlong + 1)
	}
	j0 := 0
	if f.NDown > nDown {
		j0 = rng.Intn(f.NDown - nDown + 1)
	}

	patch := make([]int, 0, nAlong*nDown)
	for i := i0; i < i0+nAlong; i++ {
		for j := j0; j < j0+nDown; j++ {
			patch = append(patch, f.At(i, j).Index)
		}
	}
	if g.maxPatch > 0 && len(patch) > g.maxPatch {
		return nil, fmt.Errorf("fakequakes: patch of %d subfaults exceeds limit %d", len(patch), g.maxPatch)
	}

	slip, err := g.correlatedSlip(patch, mw, rng)
	if err != nil {
		return nil, err
	}

	// Rescale to the exact target moment, clamping extreme lognormal
	// tails (MudPy's max-slip guard) at 10× the scaling-law mean slip —
	// Tohoku-class peaks stay possible, three-digit slips do not. The
	// clamp and rescale iterate to convergence.
	meanSlip, err := MeanSlip(mw, float64(len(patch))*f.SubfaultLen*f.SubfaultWid)
	if err != nil {
		return nil, err
	}
	maxSlip := 10 * meanSlip
	for iter := 0; iter < 8; iter++ {
		var m0 float64
		for k, idx := range patch {
			m0 += ShearModulusPa * f.Subfaults[idx].AreaKm2() * 1e6 * slip[k]
		}
		if m0 <= 0 {
			return nil, fmt.Errorf("fakequakes: degenerate slip realization")
		}
		linalg.Scale(slip, Moment(mw)/m0)
		clamped := false
		for k := range slip {
			if slip[k] > maxSlip {
				slip[k] = maxSlip
				clamped = true
			}
		}
		if !clamped {
			break
		}
	}

	// Hypocenter: MudPy biases hypocenters toward the deeper half of the
	// patch; pick uniformly from its lower-depth portion.
	hypo := patch[rng.Intn(len(patch))]
	for tries := 0; tries < 8; tries++ {
		cand := patch[rng.Intn(len(patch))]
		if f.Subfaults[cand].Down >= j0+nDown/2 {
			hypo = cand
			break
		}
	}

	// Kinematic onset times from the hypocenter along the fault surface.
	onset := make([]float64, len(patch))
	rise := make([]float64, len(patch))
	for k, idx := range patch {
		d := g.Dist.Subfault.At(hypo, idx)
		v := RuptureVelocity(f.Subfaults[idx].DepthKm)
		// Perturb the front by ±10% to mimic heterogeneous rupture speed.
		onset[k] = d / v * rng.Uniform(0.9, 1.1)
		rise[k] = RiseTime(slip[k])
	}

	r := &Rupture{
		ID:         id,
		TargetMw:   mw,
		Hypocenter: hypo,
		Patch:      patch,
		SlipM:      slip,
		OnsetS:     onset,
		RiseS:      rise,
	}
	r.ActualMw = g.momentMagnitude(r)
	return r, nil
}

// momentMagnitude recomputes Mw from the realized slip.
func (g *Generator) momentMagnitude(r *Rupture) float64 {
	var m0 float64
	for k, idx := range r.Patch {
		m0 += ShearModulusPa * g.Fault.Subfaults[idx].AreaKm2() * 1e6 * r.SlipM[k]
	}
	return Magnitude(m0)
}

// correlatedSlip draws log-normal slip with distance-decaying
// correlation over the patch subfaults.
func (g *Generator) correlatedSlip(patch []int, mw float64, rng *sim.RNG) ([]float64, error) {
	n := len(patch)
	f := g.Fault
	// Correlation lengths derive from the realized patch extent, not
	// the continuous scaling law: every Mw in the band that rounds to
	// this patch shape then shares one covariance, one Cholesky factor,
	// and one cache key (see PatchCorrelationLengths).
	minA, maxA := f.Subfaults[patch[0]].Along, f.Subfaults[patch[0]].Along
	minD, maxD := f.Subfaults[patch[0]].Down, f.Subfaults[patch[0]].Down
	for _, idx := range patch {
		s := &f.Subfaults[idx]
		minA = min(minA, s.Along)
		maxA = max(maxA, s.Along)
		minD = min(minD, s.Down)
		maxD = max(maxD, s.Down)
	}
	aS, aD := PatchCorrelationLengths(maxA-minA+1, maxD-minD+1, f.SubfaultLen, f.SubfaultWid)

	// Recycle the O(n³) factor when an identical covariance was already
	// factorized (same fault, kernel, correlation lengths, patch shape).
	// The RNG is untouched by the factorization, so hit and miss paths
	// consume exactly the same variates and scenarios stay bit-identical.
	key := covFactorKey(g.faultHash, g.Kern, g.SigmaLn, aS, aD, f, patch)
	l, ok := g.Factors.Get(key)
	if !ok {
		var err error
		if l, err = g.factorCovariance(patch, aS, aD); err != nil {
			return nil, err
		}
		g.Factors.Put(key, l)
	}
	z := make([]float64, n)
	for i := range z {
		z[i] = rng.Norm()
	}
	corr, err := l.MulVec(z)
	if err != nil {
		return nil, err
	}
	meanSlip, err := MeanSlip(mw, float64(n)*f.SubfaultLen*f.SubfaultWid)
	if err != nil {
		return nil, err
	}
	mu := math.Log(meanSlip) - 0.5*g.SigmaLn*g.SigmaLn
	slip := make([]float64, n)
	for i := range slip {
		slip[i] = math.Exp(mu + corr[i])
	}
	// Taper edges so slip dies out at the patch boundary (MudPy tapers
	// with a modified boxcar); a cosine taper over the outer 15%.
	g.taper(patch, slip)
	return slip, nil
}

// factorCovariance builds the patch's slip covariance and returns its
// Cholesky factor. The fill parallelizes over upper-triangle rows —
// every cell (a,b) and its mirror (b,a) is written by exactly one
// worker (the one owning row min(a,b)), so the writes are disjoint —
// and the blocked Cholesky fans out without changing a bit, keeping
// the factor independent of GOMAXPROCS.
func (g *Generator) factorCovariance(patch []int, aS, aD float64) (*linalg.Matrix, error) {
	n := len(patch)
	f := g.Fault
	cov := linalg.NewMatrix(n, n)
	linalg.ParallelFor(n, 4, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			sa := &f.Subfaults[patch[a]]
			for b := a; b < n; b++ {
				sb := &f.Subfaults[patch[b]]
				ds := float64(sa.Along-sb.Along) * f.SubfaultLen
				dd := float64(sa.Down-sb.Down) * f.SubfaultWid
				r := math.Sqrt((ds/aS)*(ds/aS) + (dd/aD)*(dd/aD))
				c := g.SigmaLn * g.SigmaLn * g.Kern.value(r)
				cov.Set(a, b, c)
				cov.Set(b, a, c)
			}
		}
	})
	cov.AddDiag(1e-8 * g.SigmaLn * g.SigmaLn)
	l, err := linalg.Cholesky(cov)
	if err != nil {
		return nil, fmt.Errorf("fakequakes: slip covariance: %w", err)
	}
	return l, nil
}

func (g *Generator) taper(patch []int, slip []float64) {
	if len(patch) == 0 {
		return
	}
	f := g.Fault
	minA, maxA := f.Subfaults[patch[0]].Along, f.Subfaults[patch[0]].Along
	minD, maxD := f.Subfaults[patch[0]].Down, f.Subfaults[patch[0]].Down
	for _, idx := range patch {
		s := &f.Subfaults[idx]
		minA = min(minA, s.Along)
		maxA = max(maxA, s.Along)
		minD = min(minD, s.Down)
		maxD = max(maxD, s.Down)
	}
	taper1D := func(pos, lo, hi int) float64 {
		span := float64(hi - lo)
		if span <= 0 {
			return 1
		}
		edge := 0.15 * span
		d := math.Min(float64(pos-lo), float64(hi-pos))
		if d >= edge || edge == 0 {
			return 1
		}
		return 0.5 * (1 - math.Cos(math.Pi*d/edge+math.Pi*0.0)) * 0.9999 // avoid exact zero
	}
	for k, idx := range patch {
		s := &f.Subfaults[idx]
		w := taper1D(s.Along, minA, maxA) * taper1D(s.Down, minD, maxD)
		slip[k] *= 0.05 + 0.95*w
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
