package fakequakes

import (
	"fmt"
	"math"

	"fdw/internal/linalg"
	"fdw/internal/mseed"
	"fdw/internal/par"
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
	if err := g.validateShape(); err != nil {
		return nil, err
	}
	if err := validatePatch(r, g.NSub); err != nil {
		return nil, err
	}
	out := make([]Waveform, len(g.Stations))
	// Stations are independent; split the RNG per station *before*
	// spawning so results are deterministic regardless of scheduling,
	// then fan out across the cores. Each worker expands kernels into
	// its own scratch.
	rngs := make([]*sim.RNG, len(g.Stations))
	for s := range rngs {
		rngs[s] = rng.Split(uint64(s) + 0x9e37)
	}
	par.Each(0, len(g.Stations), func() func(int) error {
		scratch := newKernelScratch(g.Cfg.Nsamples)
		return func(s int) error {
			out[s] = synthesizeStation(r, g, noise, rngs[s], s, scratch)
			return nil
		}
	})
	return out, nil
}

// newKernelScratch returns room for one expanded kernel triple of ns
// samples, carved from one allocation.
func newKernelScratch(ns int) *[3][]float64 {
	slab := make([]float64, 3*ns)
	return &[3][]float64{slab[:ns:ns], slab[ns : 2*ns : 2*ns], slab[2*ns:]}
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
// addBox only changes which sample is worked on next. Each slipping
// entry's kernels are expanded into scratch, Nsamples per component,
// over just the samples addBox reads.
func synthesizeStation(r *Rupture, g *GreensFunctions, noise NoiseConfig, rng *sim.RNG, s int, scratch *[3][]float64) Waveform {
	nT, dt := g.Cfg.Nsamples, g.Cfg.Dt
	w := Waveform{RuptureID: r.ID, Station: g.Stations[s].Name, Dt: dt}
	for c := 0; c < 3; c++ {
		w.ENZ[c] = make([]float64, nT)
	}
	row := g.params[s]
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
		kp := &row[idx]
		lead := int(kp.lead)
		if delay+lead >= nT {
			continue // every term lands on a kernel's leading zeros
		}
		g.tab.expand(scratch, kp, max(lead-nLag+1, 0), nT-delay)
		for c := 0; c < 3; c++ {
			addBox(w.ENZ[c], scratch[c], frac, delay, lead, nLag)
		}
	}
	if noise.WhiteSigmaM > 0 || noise.WalkSigmaM > 0 {
		for c := 0; c < 3; c++ {
			addNoise(w.ENZ[c], noise, rng)
		}
	}
	return w
}

// noiseChunk is how many samples addNoise draws noise for at a time.
const noiseChunk = 128

// addNoise adds one component's noise, sample by sample: a walk normal
// first when WalkSigmaM > 0, then always a white normal, each scaled
// as `0 + sd*z`, which is how rng.Normal(0, sd) computes it. The
// normals are the stream's Norm() values, in stream order, made in
// two stages per chunk: rng.PolarFill draws the accepted polar pairs,
// and linalg.PolarNorm turns them into normals with Norm's own
// operations, on AVX2 where the CPU has it. The chunk buffers live on
// the stack.
func addNoise(x []float64, noise NoiseConfig, rng *sim.RNG) {
	per := 1
	if noise.WalkSigmaM > 0 {
		per = 2
	}
	var buf, s [2 * noiseChunk]float64
	walk := 0.0
	for len(x) > 0 {
		m := min(len(x), noiseChunk)
		z := buf[:m*per]
		rng.PolarFill(z, s[:])       // z holds each pair's u …
		linalg.PolarNorm(z, z, s[:]) // … and then its normal
		if per == 2 {
			for t := range x[:m] {
				walk += 0 + noise.WalkSigmaM*z[2*t]
				x[t] += walk + (0 + noise.WhiteSigmaM*z[2*t+1])
			}
		} else {
			// walk stays 0, but the sum stays too: 0 + (−0) is +0.
			for t := range x[:m] {
				x[t] += walk + (0 + noise.WhiteSigmaM*z[t])
			}
		}
		x = x[m:]
	}
}

// addBox adds one patch entry's term to a waveform component:
//
//	dst[i] += frac·kern[i−delay−lag] for lag = 0, 1, …, nLag−1
//
// per sample i, in that lag order, each term computed as the
// reference loop computes it — its sequence, walked sample by sample
// instead of lag by lag. kern holds len(dst) samples and nLag ≤
// len(dst)−delay; only kern[max(lead−nLag+1, 0) : len(dst)−delay] is
// read, so a caller need fill no more of it.
//
// Terms whose kernel index falls before lead may be skipped or taken,
// and either is exact: such a term is frac·(±0) = ±0, because
// validatePatch keeps frac finite; the accumulator it would be added
// to is never −0, because it starts at +0 and a sum that cancels,
// x + (−x), is +0 under round-to-nearest; and adding ±0 to anything
// but −0 leaves its bits unchanged (a NaN stays the same NaN). So
// samples before delay+lead are never touched.
//
// Samples from delay+lead on come in three runs. The body, in whole
// blocks of eight, takes every lag: linalg.AddBox8 holds the eight
// accumulators in registers across all nLag lags, on AVX where the
// CPU has it, and reads back into the leading zeros by up to nLag−1
// samples — cheaper than a scalar loop that skips them. Only samples
// whose lags would reach before kernel sample 0 (when lead < nLag−1)
// form a scalar head, each over its own lags down to lead; the last
// < 8 samples are the scalar tail.
func addBox(dst, kern []float64, frac float64, delay, lead, nLag int) {
	nT := len(dst)
	lo := delay + lead // first sample a kept term reaches
	head := min(max(lo, delay+nLag-1), nT)
	for i := lo; i < head; i++ {
		acc := dst[i]
		for t := i - delay; t >= lead; t-- {
			acc += frac * kern[t]
		}
		dst[i] = acc
	}
	if head == nT {
		return
	}
	// Body sample head+j's lag-l term is kern[head+j−delay−l]: the
	// window starts at lag nLag−1 of sample head.
	n8 := (nT - head) &^ 7
	linalg.AddBox8(dst[head:head+n8], kern[head-delay-nLag+1:head-delay+n8], frac, nLag)
	for i := head + n8; i < nT; i++ {
		acc := dst[i]
		for t := i - delay; t > i-delay-nLag; t-- {
			acc += frac * kern[t]
		}
		dst[i] = acc
	}
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
