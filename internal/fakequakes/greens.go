package fakequakes

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"fdw/internal/geom"
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
	if c.Dt <= 0 {
		return fmt.Errorf("fakequakes: non-positive Dt %v", c.Dt)
	}
	if c.Nsamples <= 0 {
		return fmt.Errorf("fakequakes: non-positive Nsamples %d", c.Nsamples)
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
// Kernel[s][f][c] is a time series of Nsamples displacement values (m)
// for 1 m of slip on subfault f observed at station s, component c.
type GreensFunctions struct {
	Cfg      GFConfig
	Stations []geom.Station
	NSub     int
	Kernel   [][][3][]float64
}

// ComputeGreens builds simplified layered-half-space kernels: each
// subfault contributes a permanent (static) offset with Okada-style
// 1/r² geometric decay plus a transient arriving at the S travel time
// with 1/r decay — the far-field/near-field structure real GFs have.
// Cost scales with stations × subfaults × samples, which is why the
// paper's B phase "can span multiple hours" with 121 stations.
func ComputeGreens(f *geom.Fault, stations []geom.Station, d *DistanceMatrices, cfg GFConfig) (*GreensFunctions, error) {
	computeGreensCalls.Add(1)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(f.NumSubfaults(), len(stations)); err != nil {
		return nil, err
	}
	n := f.NumSubfaults()
	g := &GreensFunctions{Cfg: cfg, Stations: stations, NSub: n}
	g.Kernel = make([][][3][]float64, len(stations))
	tab := newSampleTables(cfg)
	// Stations are independent: fan the outer loop across the cores
	// (this is the per-node parallelism the real phase B gets from MPI).
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for s := range stations {
		wg.Add(1)
		sem <- struct{}{}
		go func(s int) {
			defer func() { <-sem; wg.Done() }()
			g.computeStation(f, d, &tab, s)
		}(s)
	}
	wg.Wait()
	return g, nil
}

// sampleTables holds the per-sample factors every kernel shares,
// indexed by j = t − arr, the samples since the S arrival: the ramp
// p[j] = min(1, j/ramp), the transient argument x[j] = j·Dt/6, and its
// decay e[j] = exp(−x[j]). They depend only on GFConfig, so
// ComputeGreens builds them once per call instead of evaluating
// math.Exp once per (station, subfault, component, sample).
type sampleTables struct{ p, x, e []float64 }

func newSampleTables(cfg GFConfig) sampleTables {
	ramp := int(math.Max(2, 4/cfg.Dt)) // ~4 s ramp to the static level
	tab := sampleTables{
		p: make([]float64, cfg.Nsamples),
		x: make([]float64, cfg.Nsamples),
		e: make([]float64, cfg.Nsamples),
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

// computeStation fills the kernels for one station. Its n·3 kernels
// are carved from one zeroed slab, so a station costs two allocations,
// not one per kernel. Each sample is the original per-sample expression
// with the loop invariants hoisted and nothing re-associated —
// (staticAmp·rad[c])·p[j], then + ((dynAmp·rad[c])·x[j])·e[j] — so every
// float64 keeps its exact bits (reference_test.go holds the original).
func (g *GreensFunctions) computeStation(f *geom.Fault, d *DistanceMatrices, tab *sampleTables, s int) {
	ns := g.Cfg.Nsamples
	slab := make([]float64, g.NSub*3*ns)
	kernels := make([][3][]float64, g.NSub)
	for sf := range kernels {
		sub := &f.Subfaults[sf]
		repi := d.Station.At(s, sf)
		rhyp := math.Sqrt(repi*repi + sub.DepthKm*sub.DepthKm)
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
		arr := int(tS / g.Cfg.Dt)

		for c := 0; c < 3; c++ {
			off := (sf*3 + c) * ns
			k := slab[off : off+ns : off+ns]
			kernels[sf][c] = k
			if arr >= ns {
				continue // arrives after the last sample: all zeros
			}
			sa, da := staticAmp*rad[c], dynAmp*rad[c]
			k = k[arr:]
			p, x, e := tab.p[:len(k)], tab.x[:len(k)], tab.e[:len(k)]
			for j := range k {
				// Ramp to static offset, then the transient pulse
				// riding on the ramp.
				k[j] = sa * p[j]
				k[j] += da * x[j] * e[j]
			}
		}
	}
	g.Kernel[s] = kernels
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

// validate checks the kernel's internal consistency: one entry per
// station, each holding NSub subfaults. A hand-assembled or corrupt
// value (the cache-load failure mode) reports an error here rather
// than panicking deep in an index expression — the linalg convention:
// errors for data-shaped problems, panics only for caller bugs like a
// negative index the API documents as out of contract.
func (g *GreensFunctions) validate() error {
	if g.NSub < 0 {
		return fmt.Errorf("fakequakes: negative subfault count %d", g.NSub)
	}
	if len(g.Kernel) != len(g.Stations) {
		return fmt.Errorf("fakequakes: kernel holds %d stations, station list %d", len(g.Kernel), len(g.Stations))
	}
	for s := range g.Kernel {
		if len(g.Kernel[s]) != g.NSub {
			return fmt.Errorf("fakequakes: station %d kernel holds %d subfaults, want %d", s, len(g.Kernel[s]), g.NSub)
		}
	}
	return nil
}
