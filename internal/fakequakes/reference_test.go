package fakequakes

// Executable specifications for the Phase B and Phase C kernels: the
// original per-sample loops, kept verbatim so the property tests in
// kernels_test.go can require the production kernels (the table-driven
// computeStation and the re-sliced synthesizeStation, DESIGN.md §15) to
// reproduce every float64 bit for bit.

import (
	"fmt"
	"math"

	"fdw/internal/geom"
	"fdw/internal/sim"
)

// referenceGreens builds the kernels for every station serially with
// referenceComputeStation.
func referenceGreens(f *geom.Fault, stations []geom.Station, d *DistanceMatrices, cfg GFConfig) *GreensFunctions {
	g := &GreensFunctions{Cfg: cfg, Stations: stations, NSub: f.NumSubfaults()}
	g.Kernel = make([][][3][]float64, len(stations))
	for s := range stations {
		g.referenceComputeStation(f, d, s)
	}
	return g
}

// referenceComputeStation fills the kernels for one station.
func (g *GreensFunctions) referenceComputeStation(f *geom.Fault, d *DistanceMatrices, s int) {
	cfg := g.Cfg
	n := g.NSub
	stations := g.Stations
	{
		g.Kernel[s] = make([][3][]float64, n)
		for sf := 0; sf < n; sf++ {
			sub := &f.Subfaults[sf]
			repi := d.Station.At(s, sf)
			rhyp := math.Sqrt(repi*repi + sub.DepthKm*sub.DepthKm)
			// A point-source kernel diverges as r → 0; clamp to the
			// subfault dimension (the finite-source near-field limit).
			if minR := sub.LengthKm; rhyp < minR {
				rhyp = minR
			}
			// Radiation-pattern-like azimuthal weights from geometry.
			az := azimuthDeg(stations[s].Pos, sub.Center)
			rad := radiation(az, sub.StrikeDeg, sub.DipDeg)
			tS := rhyp / cfg.VsKmS

			// Static offsets (m of displacement per m of slip): the
			// far-field Okada scale u ≈ slip·A/(4π r²), with A the
			// subfault area — dm-level offsets at 100 km for Mw 8.
			staticAmp := sub.AreaKm2() / (4 * math.Pi * rhyp * rhyp)
			// Dynamic peak decays as 1/r and is ~2× the static level
			// in the near field.
			dynAmp := 0.0015 * sub.AreaKm2() / rhyp

			for c := 0; c < 3; c++ {
				k := make([]float64, cfg.Nsamples)
				arr := int(tS / cfg.Dt)
				ramp := int(math.Max(2, 4/cfg.Dt)) // ~4 s ramp to the static level
				for t := arr; t < cfg.Nsamples; t++ {
					// Ramp to static offset.
					p := float64(t-arr) / float64(ramp)
					if p > 1 {
						p = 1
					}
					k[t] = staticAmp * rad[c] * p
					// Transient pulse riding on the ramp.
					x := float64(t-arr) * cfg.Dt / 6.0
					k[t] += dynAmp * rad[c] * x * math.Exp(-x)
				}
				g.Kernel[s][sf][c] = k
			}
		}
	}
}

// referenceSynthesize runs referenceSynthesizeStation over every
// station serially, splitting the RNG per station exactly as
// SynthesizeWaveforms does.
func referenceSynthesize(r *Rupture, g *GreensFunctions, noise NoiseConfig, rng *sim.RNG) ([]Waveform, error) {
	out := make([]Waveform, len(g.Stations))
	rngs := make([]*sim.RNG, len(g.Stations))
	for s := range rngs {
		rngs[s] = rng.Split(uint64(s) + 0x9e37)
	}
	for s := range g.Stations {
		if err := referenceSynthesizeStation(r, g, noise, rngs[s], g.Cfg.Nsamples, g.Cfg.Dt, s, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// referenceSynthesizeStation builds one station's waveform into out[s].
func referenceSynthesizeStation(r *Rupture, g *GreensFunctions, noise NoiseConfig, rng *sim.RNG, nT int, dt float64, s int, out []Waveform) error {
	{
		st := g.Stations[s]
		w := Waveform{RuptureID: r.ID, Station: st.Name, Dt: dt}
		for c := 0; c < 3; c++ {
			w.ENZ[c] = make([]float64, nT)
		}
		for k, idx := range r.Patch {
			if idx < 0 || idx >= g.NSub {
				return fmt.Errorf("fakequakes: rupture references subfault %d outside GF set of %d", idx, g.NSub)
			}
			slip := r.SlipM[k]
			if slip == 0 {
				continue
			}
			delay := int(r.OnsetS[k] / dt)
			// Smear over the rise time: distribute slip across nRise lags.
			nRise := int(r.RiseS[k]/dt) + 1
			frac := slip / float64(nRise)
			for c := 0; c < 3; c++ {
				kern := g.Kernel[s][idx][c]
				dst := w.ENZ[c]
				for lag := 0; lag < nRise; lag++ {
					off := delay + lag
					if off >= nT {
						break
					}
					// dst[off:] += frac * kern[:nT-off]
					for t := 0; t < nT-off; t++ {
						dst[off+t] += frac * kern[t]
					}
				}
			}
		}
		if noise.WhiteSigmaM > 0 || noise.WalkSigmaM > 0 {
			for c := 0; c < 3; c++ {
				walk := 0.0
				for t := range w.ENZ[c] {
					if noise.WalkSigmaM > 0 {
						walk += rng.Normal(0, noise.WalkSigmaM)
					}
					w.ENZ[c][t] += walk + rng.Normal(0, noise.WhiteSigmaM)
				}
			}
		}
		out[s] = w
	}
	return nil
}
