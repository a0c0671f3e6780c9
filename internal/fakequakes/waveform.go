package fakequakes

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"fdw/internal/mseed"
	"fdw/internal/sim"
)

// Waveform is the 3-component GNSS displacement time series at one
// station for one rupture — the final FakeQuakes product (Phase C).
type Waveform struct {
	RuptureID string
	Station   string
	Dt        float64
	// ENZ[c][t]: east/north/up displacement (m).
	ENZ [3][]float64
}

// PGD returns the peak ground displacement (m): the maximum 3-D
// displacement amplitude, the key EEW magnitude proxy (Ruhl et al. 2017).
func (w *Waveform) PGD() float64 {
	var peak float64
	for t := range w.ENZ[0] {
		e, n, z := w.ENZ[0][t], w.ENZ[1][t], w.ENZ[2][t]
		if a := math.Sqrt(e*e + n*n + z*z); a > peak {
			peak = a
		}
	}
	return peak
}

// NoiseConfig models GNSS position noise (cf. Melgar et al. 2020):
// white noise plus a random-walk component.
type NoiseConfig struct {
	WhiteSigmaM float64 // per-sample white noise, meters
	WalkSigmaM  float64 // random-walk step, meters/sqrt(sample)
}

// DefaultNoise reflects operational real-time GNSS precision:
// ~5 mm white, small random walk.
func DefaultNoise() NoiseConfig {
	return NoiseConfig{WhiteSigmaM: 0.005, WalkSigmaM: 0.0005}
}

// SynthesizeWaveforms convolves a rupture's slip distribution with the
// Green's functions: for each station/component, sum over patch
// subfaults of slip × kernel delayed by the rupture-front onset and
// smeared over the local rise time. Optional noise is added per sample.
// The rupture is validated once, before the station fan-out, so a
// hostile patch (say, from a .rupt file) is an error, never a panic in
// a station goroutine.
func SynthesizeWaveforms(r *Rupture, g *GreensFunctions, noise NoiseConfig, rng *sim.RNG) ([]Waveform, error) {
	if r == nil || g == nil {
		return nil, fmt.Errorf("fakequakes: nil rupture or Green's functions")
	}
	if len(r.Patch) != len(r.SlipM) || len(r.Patch) != len(r.OnsetS) || len(r.Patch) != len(r.RiseS) {
		return nil, fmt.Errorf("fakequakes: inconsistent rupture arrays")
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	if err := validatePatch(r, g.NSub); err != nil {
		return nil, err
	}
	out := make([]Waveform, len(g.Stations))
	// Stations are independent; split the RNG per station *before*
	// spawning so results are deterministic regardless of scheduling,
	// then fan out across the cores.
	rngs := make([]*sim.RNG, len(g.Stations))
	for s := range rngs {
		rngs[s] = rng.Split(uint64(s) + 0x9e37)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for s := range g.Stations {
		wg.Add(1)
		sem <- struct{}{}
		go func(s int) {
			defer func() { <-sem; wg.Done() }()
			out[s] = synthesizeStation(r, g, noise, rngs[s], s)
		}(s)
	}
	wg.Wait()
	return out, nil
}

// validatePatch checks every patch entry against a GF set of nsub
// subfaults: the subfault is in range, the slip is finite, and the
// onset and rise time are finite and non-negative. Errors name the
// rupture, the patch position and the subfault.
func validatePatch(r *Rupture, nsub int) error {
	for k, idx := range r.Patch {
		if idx < 0 || idx >= nsub {
			return fmt.Errorf("fakequakes: rupture %q patch[%d] references subfault %d outside GF set of %d", r.ID, k, idx, nsub)
		}
		var bad string
		switch {
		case math.IsNaN(r.SlipM[k]) || math.IsInf(r.SlipM[k], 0):
			bad = fmt.Sprintf("non-finite slip %v", r.SlipM[k])
		case !finiteNonNegative(r.OnsetS[k]):
			bad = fmt.Sprintf("onset %v s is not finite and ≥ 0", r.OnsetS[k])
		case !finiteNonNegative(r.RiseS[k]):
			bad = fmt.Sprintf("rise time %v s is not finite and ≥ 0", r.RiseS[k])
		default:
			continue
		}
		return fmt.Errorf("fakequakes: rupture %q patch[%d] (subfault %d): %s", r.ID, k, idx, bad)
	}
	return nil
}

// finiteNonNegative reports whether v is a finite value ≥ 0 (NaN is not).
func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// synthesizeStation builds one station's waveform from a patch that
// validatePatch accepted. Every sample is accumulated in patch order,
// then lag order, exactly as the original loop (reference_test.go);
// the per-lag update runs over re-sliced windows of equal length so
// the compiler drops its bounds checks.
func synthesizeStation(r *Rupture, g *GreensFunctions, noise NoiseConfig, rng *sim.RNG, s int) Waveform {
	nT, dt := g.Cfg.Nsamples, g.Cfg.Dt
	w := Waveform{RuptureID: r.ID, Station: g.Stations[s].Name, Dt: dt}
	for c := 0; c < 3; c++ {
		w.ENZ[c] = make([]float64, nT)
	}
	for k, idx := range r.Patch {
		slip := r.SlipM[k]
		if slip == 0 {
			continue
		}
		// An onset at or past the last sample contributes nothing;
		// skipping it before the int conversion also keeps a huge
		// onset from overflowing into a negative index.
		onset := r.OnsetS[k] / dt
		if onset >= float64(nT) {
			continue
		}
		delay := int(onset)
		// Smear over the rise time: distribute slip across nRise =
		// ⌊rise⌋+1 lags. math.Trunc(rise)+1 is float64(int(rise)+1)
		// without the int overflow; only the first nT−delay lags land
		// inside the record.
		rise := r.RiseS[k] / dt
		frac := slip / (math.Trunc(rise) + 1)
		nLag := nT - delay
		if rise < float64(nLag) {
			nLag = int(rise) + 1
		}
		for c := 0; c < 3; c++ {
			kern := g.Kernel[s][idx][c]
			dst := w.ENZ[c]
			for lag := 0; lag < nLag; lag++ {
				// dst[off:] += frac * kern[:nT-off], four samples per
				// iteration. The one-sample loop is 35 bytes, and where
				// the linker puts this function decides whether it
				// straddles a 64-byte line: a 32-byte shift in unrelated
				// code moved fq121 scenario p90 by ~30 % on a 2-core
				// Xeon. The unrolled body is insensitive to that shift.
				// Each sample still gets the same single update.
				d := dst[delay+lag:]
				kk := kern[:len(d)]
				t := 0
				for ; t+4 <= len(d); t += 4 {
					d4, k4 := d[t:t+4:t+4], kk[t:t+4:t+4]
					d4[0] += frac * k4[0]
					d4[1] += frac * k4[1]
					d4[2] += frac * k4[2]
					d4[3] += frac * k4[3]
				}
				for ; t < len(d); t++ {
					d[t] += frac * kk[t]
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
	return w
}

// ToRecords converts a waveform to mseed records.
func (w *Waveform) ToRecords() []mseed.Record {
	recs := make([]mseed.Record, 3)
	for c, ch := range Components {
		recs[c] = mseed.Record{
			Network: "CL",
			Station: w.Station,
			Channel: ch,
			Start:   0,
			Dt:      w.Dt,
			Samples: w.ENZ[c],
		}
	}
	return recs
}
