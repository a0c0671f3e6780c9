package fakequakes

import (
	"fmt"
	"math"

	"fdw/internal/geom"
	"fdw/internal/linalg"
	"fdw/internal/par"
)

// GFConfig parameterizes Green's-function synthesis (Phase B).
type GFConfig struct {
	Dt       float64 // sample interval (s); GNSS high-rate is 1 Hz
	Nsamples int     // samples per kernel
	VpKmS    float64 // P-wave speed
	VsKmS    float64 // S-wave speed
}

// DefaultGFConfig matches the paper's GNSS use case: 1 Hz, 512 s records.
func DefaultGFConfig() GFConfig {
	return GFConfig{Dt: 1.0, Nsamples: 512, VpKmS: 6.8, VsKmS: 3.9}
}

// Validate reports configuration errors.
func (c GFConfig) Validate() error {
	for _, v := range []float64{c.Dt, c.VpKmS, c.VsKmS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fakequakes: non-finite value in GF config %+v", c)
		}
	}
	if c.Dt <= 0 {
		return fmt.Errorf("fakequakes: non-positive Dt %v", c.Dt)
	}
	if c.Nsamples <= 0 || c.Nsamples > math.MaxInt32 {
		return fmt.Errorf("fakequakes: Nsamples %d outside [1, %d]", c.Nsamples, math.MaxInt32)
	}
	if c.VsKmS <= 0 || c.VpKmS <= c.VsKmS {
		return fmt.Errorf("fakequakes: implausible velocities vp=%v vs=%v", c.VpKmS, c.VsKmS)
	}
	return nil
}

// Components of GNSS displacement, in MudPy/SEED channel order.
var Components = [3]string{"LXE", "LXN", "LXZ"}

// GreensFunctions holds unit-slip displacement kernels for every
// (station, subfault, component) triple: the Phase B ".mseed" product.
// Kernel (s, f, c) is a time series of Nsamples displacement values
// (m) for 1 m of slip on subfault f observed at station s, component
// c. The set stores each (station, subfault)'s three kernels as the
// seven numbers they are made of (kernelParams) plus the per-sample
// tables all kernels share, ~56 B per triple instead of 3·Nsamples
// samples; synthesis expands a triple only when it uses it.
//
// A set returned by ComputeGreens or LoadOrCompute is read-only, and
// its Cfg, Stations and NSub describe it: synthesis rejects a set
// whose Cfg differs from the one its kernels were computed for.
type GreensFunctions struct {
	Cfg      GFConfig
	Stations []geom.Station
	NSub     int

	// params[s][f] describes station s's kernels for subfault f. The
	// station rows share one allocation.
	params [][]kernelParams
	tab    sampleTables
}

// kernelParams are the seven numbers one (station, subfault)'s three
// kernels are made of. Component c's sample t is ±0 before the S
// arrival arr, and from it on, with j = t − arr,
//
//	float64(sa[c]·p[j]) + float64(float64(da[c]·x[j])·e[j])
//
// over the sampleTables (linalg.RampPulse3 computes it). An arrival at
// or after Nsamples has arr = Nsamples: all three kernels are zeros.
// lead is the first index t ≥ arr where any of the three samples is
// not ±0 (NaN counts as other), or Nsamples if there is none; every
// sample before it is ±0.
type kernelParams struct {
	arr, lead int32
	sa, da    [3]float64
}

// newGreens returns a set for nsub subfaults at stations whose
// parameter rows, one allocation, are left for the station workers to
// fill.
func newGreens(cfg GFConfig, stations []geom.Station, nsub int) *GreensFunctions {
	g := &GreensFunctions{Cfg: cfg, Stations: stations, NSub: nsub, tab: newSampleTables(cfg)}
	g.params = make([][]kernelParams, len(stations))
	all := make([]kernelParams, len(stations)*nsub)
	for s := range g.params {
		g.params[s] = all[s*nsub : (s+1)*nsub : (s+1)*nsub]
	}
	return g
}

// ComputeGreens builds simplified layered-half-space kernels: each
// subfault contributes a permanent (static) offset with Okada-style
// 1/r² geometric decay plus a transient arriving at the S travel time
// with 1/r decay — the far-field/near-field structure real GFs have.
// The paper's B phase "can span multiple hours" with 121 stations;
// here each (station, subfault) costs its geometry and a sample or two
// of its kernels, to find their lead. Stations are independent and fan
// out across the cores, the per-node parallelism the real phase B
// gets from MPI.
func ComputeGreens(f *geom.Fault, stations []geom.Station, d *DistanceMatrices, cfg GFConfig) (*GreensFunctions, error) {
	computeGreensCalls.Add(1)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(f.NumSubfaults(), len(stations)); err != nil {
		return nil, err
	}
	g := newGreens(cfg, stations, f.NumSubfaults())
	par.Each(0, len(stations), func() func(int) error {
		return func(s int) error {
			g.computeStation(f, d, s)
			return nil
		}
	})
	return g, nil
}

// sampleTables holds the per-sample factors every kernel shares,
// indexed by j = t − arr, the samples since the S arrival: the ramp
// p[j] = min(1, j/ramp), the transient argument x[j] = j·Dt/6, and its
// decay e[j] = exp(−x[j]). They depend only on cfg, the configuration
// they were built for, so a set builds them once instead of
// evaluating math.Exp once per (station, subfault, component, sample).
type sampleTables struct {
	cfg     GFConfig
	p, x, e []float64
}

func newSampleTables(cfg GFConfig) sampleTables {
	ramp := int(math.Max(2, 4/cfg.Dt)) // ~4 s ramp to the static level
	tab := sampleTables{
		cfg: cfg,
		p:   make([]float64, cfg.Nsamples),
		x:   make([]float64, cfg.Nsamples),
		e:   make([]float64, cfg.Nsamples),
	}
	for j := range tab.p {
		p := float64(j) / float64(ramp)
		if p > 1 {
			p = 1
		}
		tab.p[j] = p
		tab.x[j] = float64(j) * cfg.Dt / 6.0
		tab.e[j] = math.Exp(-tab.x[j])
	}
	return tab
}

// expand writes samples [lo, hi) of the three kernels kp describes
// into k[c][lo:hi], 0 ≤ lo ≤ hi ≤ Nsamples, and touches nothing else
// of k: +0 before the arrival, linalg.RampPulse3 from it on.
func (tab *sampleTables) expand(k *[3][]float64, kp *kernelParams, lo, hi int) {
	arr := int(kp.arr)
	mid := min(max(arr, lo), hi) // the first sample written from the tables
	var w [3][]float64
	for c := range k {
		clear(k[c][lo:mid])
		w[c] = k[c][mid:hi]
	}
	if j := mid - arr; j >= 0 {
		linalg.RampPulse3(&w, &kp.sa, &kp.da, tab.p[j:], tab.x[j:], tab.e[j:])
	}
}

// leadOf returns kp's lead. It expands the kernels from the arrival
// on, a few samples at a time, until a sample is not ±0, which for a
// kernel of nonzero amplitude is within a sample or two.
func (tab *sampleTables) leadOf(kp *kernelParams) int32 {
	var buf [3][4]float64
	for t := int(kp.arr); t < len(tab.p); t += len(buf[0]) {
		n := min(len(buf[0]), len(tab.p)-t)
		k := [3][]float64{buf[0][:n], buf[1][:n], buf[2][:n]}
		j := t - int(kp.arr)
		linalg.RampPulse3(&k, &kp.sa, &kp.da, tab.p[j:], tab.x[j:], tab.e[j:])
		for i := range n {
			if k[0][i] != 0 || k[1][i] != 0 || k[2][i] != 0 {
				return int32(t + i)
			}
		}
	}
	return int32(len(tab.p))
}

// computeStation fills one station's kernel parameters. The amplitudes
// are the original per-sample expression's loop invariants, nothing
// re-associated — (staticAmp·rad[c]) and (dynAmp·rad[c]) — so each
// expanded sample keeps its exact bits (reference_test.go holds the
// original loop).
func (g *GreensFunctions) computeStation(f *geom.Fault, d *DistanceMatrices, s int) {
	ns := g.Cfg.Nsamples
	for sf := range g.params[s] {
		sub := &f.Subfaults[sf]
		repi := d.Station.At(s, sf)
		rhyp := math.Sqrt(float64(repi*repi) + float64(sub.DepthKm*sub.DepthKm))
		// A point-source kernel diverges as r → 0; clamp to the
		// subfault dimension (the finite-source near-field limit).
		if minR := sub.LengthKm; rhyp < minR {
			rhyp = minR
		}
		// Radiation-pattern-like azimuthal weights from geometry.
		az := azimuthDeg(g.Stations[s].Pos, sub.Center)
		rad := radiation(az, sub.StrikeDeg, sub.DipDeg)
		tS := rhyp / g.Cfg.VsKmS

		// Static offsets (m of displacement per m of slip): the
		// far-field Okada scale u ≈ slip·A/(4π r²), with A the
		// subfault area — dm-level offsets at 100 km for Mw 8.
		staticAmp := sub.AreaKm2() / (4 * math.Pi * rhyp * rhyp)
		// Dynamic peak decays as 1/r and is ~2× the static level
		// in the near field.
		dynAmp := 0.0015 * sub.AreaKm2() / rhyp

		kp := &g.params[s][sf]
		kp.arr = int32(ns) // arrives after the last sample: all zeros
		if a := tS / g.Cfg.Dt; a < float64(ns) {
			kp.arr = int32(a)
		}
		for c := range rad {
			kp.sa[c], kp.da[c] = float64(staticAmp*rad[c]), float64(dynAmp*rad[c])
		}
		kp.lead = g.tab.leadOf(kp)
	}
}

// azimuthDeg returns the azimuth from src toward sta, degrees from north.
func azimuthDeg(sta, src geom.LatLon) float64 {
	const deg = math.Pi / 180
	dLon := (sta.Lon - src.Lon) * deg
	la1 := src.Lat * deg
	la2 := sta.Lat * deg
	y := math.Sin(dLon) * math.Cos(la2)
	x := math.Cos(la1)*math.Sin(la2) - math.Sin(la1)*math.Cos(la2)*math.Cos(dLon)
	az := math.Atan2(y, x) / deg
	if az < 0 {
		az += 360
	}
	return az
}

// radiation returns smooth, bounded per-component weights that depend
// on source-receiver geometry (a stand-in for the full double-couple
// radiation pattern; preserves azimuthal variation without the tensor
// algebra).
func radiation(azDeg, strikeDeg, dipDeg float64) [3]float64 {
	const deg = math.Pi / 180
	phi := (azDeg - strikeDeg) * deg
	delta := dipDeg * deg
	e := 0.6*math.Sin(phi) + 0.25*math.Cos(2*phi)
	n := 0.6*math.Cos(phi) - 0.25*math.Sin(2*phi)
	z := 0.5 + 0.5*math.Sin(delta)*math.Abs(math.Sin(phi))
	return [3]float64{e, n, z}
}

// validateShape checks the set's internal consistency: a valid Cfg,
// the one its kernels were computed for, and one parameter row per
// station, each holding NSub subfaults. A hand-assembled or altered
// value reports an error here rather than panicking deep in an index
// expression — the linalg convention: errors for data-shaped
// problems, panics only for caller bugs like a negative index the API
// documents as out of contract.
func (g *GreensFunctions) validateShape() error {
	if err := g.Cfg.Validate(); err != nil {
		return err
	}
	if g.Cfg != g.tab.cfg {
		return fmt.Errorf("fakequakes: Green's functions computed for %+v, set says %+v", g.tab.cfg, g.Cfg)
	}
	if g.NSub < 0 {
		return fmt.Errorf("fakequakes: negative subfault count %d", g.NSub)
	}
	if len(g.params) != len(g.Stations) {
		return fmt.Errorf("fakequakes: kernel holds %d stations, station list %d", len(g.params), len(g.Stations))
	}
	for s := range g.params {
		if len(g.params[s]) != g.NSub {
			return fmt.Errorf("fakequakes: station %d kernel holds %d subfaults, want %d", s, len(g.params[s]), g.NSub)
		}
	}
	return nil
}
