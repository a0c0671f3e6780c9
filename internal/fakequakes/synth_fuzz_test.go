package fakequakes

import (
	"fmt"
	"math"
	"testing"

	"fdw/internal/geom"
	"fdw/internal/linalg"
	"fdw/internal/sim"
)

// fuzzBytes hands out the fuzzer's bytes in order and, once they run
// out, a splitmix64 stream seeded by how many there were, so a short
// input still describes a whole set.
type fuzzBytes struct {
	data  []byte
	i     int
	state uint64
}

func (b *fuzzBytes) next() byte {
	if b.i < len(b.data) {
		b.i++
		return b.data[b.i-1]
	}
	b.state += 0x9e3779b97f4a7c15
	z := b.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return byte(z ^ (z >> 31))
}

// fuzzSample draws one kernel sample: one byte in four picks a signed
// zero, a subnormal, the smallest normal, an infinity or NaN; the rest
// are ordinary values of either sign.
func (b *fuzzBytes) fuzzSample() float64 {
	v := b.next()
	specials := [...]float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022, math.Inf(1), math.Inf(-1), math.NaN()}
	if v < 64 {
		return specials[v%8]
	}
	return float64(int8(v)) / 37 * math.Ldexp(1, int(b.next()%16)-8)
}

// fuzzSet decodes, in this order, a shape — 1–4 stations, 1–8
// subfaults, 1–64 samples at Dt ∈ {0.5, 1, 2} — a rupture, a noise
// model and the parameter table. Patch entries pick a subfault, a
// slip, an onset of up to nT+8 samples and a rise time of up to 255
// samples: values validatePatch accepts and the reference loop's int
// conversions hold. Each (station, subfault) gets an arrival anywhere
// in [0, nT] and amplitudes from fuzzSample; its lead is the one
// leadOf computes, as a load computes it.
func fuzzSet(data []byte) (*GreensFunctions, *Rupture, NoiseConfig) {
	b := &fuzzBytes{data: data, state: uint64(len(data))}
	nStations := 1 + int(b.next()%4)
	nSub := 1 + int(b.next()%8)
	nT := 1 + int(b.next()%64)
	dt := [...]float64{0.5, 1, 2}[b.next()%3]
	cfg := GFConfig{Dt: dt, Nsamples: nT, VpKmS: 6.8, VsKmS: 3.9}
	slips := [...]float64{0, 1, 2, 1.5, 0.5, -0.75, 3e-310, 1e300}
	r := &Rupture{ID: "fuzz"}
	for n := int(b.next() % 16); n > 0; n-- {
		r.Patch = append(r.Patch, int(b.next())%nSub)
		r.SlipM = append(r.SlipM, slips[b.next()%8])
		r.OnsetS = append(r.OnsetS, (float64(int(b.next())%(nT+9))+float64(b.next())/256)*dt)
		r.RiseS = append(r.RiseS, (float64(b.next())+float64(b.next())/256)*dt)
	}
	var noise NoiseConfig
	if b.next()%2 == 1 {
		noise = DefaultNoise()
	}
	stations := geom.FullChileanStations()[:nStations]
	g := newGreens(cfg, stations, nSub)
	for s := range g.params {
		for sf := range g.params[s] {
			kp := &g.params[s][sf]
			kp.arr = int32(int(b.next()) % (nT + 1))
			for c := 0; c < 3; c++ {
				kp.sa[c], kp.da[c] = b.fuzzSample(), b.fuzzSample()
			}
			kp.lead = g.tab.leadOf(kp)
		}
	}
	return g, r, noise
}

// fuzzPatchBytes encodes a shape header and patch entries for fuzzSet:
// each entry is (subfault, slip index, onset samples, onset 256ths,
// rise samples, rise 256ths). The noise byte and the kernels then come
// from the fallback stream.
func fuzzPatchBytes(header []byte, entries [][6]byte) []byte {
	out := append([]byte(nil), header...)
	out = append(out, byte(len(entries)))
	for _, e := range entries {
		out = append(out, e[:]...)
	}
	return out
}

// canonicalNaNs replaces every NaN sample with math.NaN(). Which NaN
// a sum of two NaNs returns is x86's operand-order rule, and Go
// compiles `dst[i] += frac*k` with either operand first, as register
// allocation falls: the reference loop itself returns the product's
// NaN, a loop over a register accumulator the accumulator's. NaN
// payloads therefore carry no meaning here; everything else does.
func canonicalNaNs(wfs []Waveform) {
	for s := range wfs {
		for _, x := range wfs[s].ENZ {
			canonicalSamples(x)
		}
	}
}

// canonicalSamples is canonicalNaNs for one series.
func canonicalSamples(x []float64) {
	for i, v := range x {
		if math.IsNaN(v) {
			x[i] = math.NaN()
		}
	}
}

// FuzzSynthesize is a differential test of Phase C: SynthesizeWaveforms,
// with the assembly kernels on and with them off, must reproduce
// referenceSynthesize's float64 bits over referenceExpand's kernels,
// NaN payloads aside (canonicalNaNs), on every set fuzzSet decodes —
// arrivals anywhere in the record, signed-zero, subnormal, infinite
// and NaN amplitudes, and patches whose onsets and rise times run past
// the record.
func FuzzSynthesize(f *testing.F) {
	// edgeRupture's cases at nT = 32, Dt = 1, three subfaults: zero
	// slip; onset at nT; onset past nT; one sample left with nRise ≫
	// nT; nRise = nT + 1; a fractional onset; a repeated subfault. Its
	// rise time beyond int range is left out: the reference loop's
	// int conversion of it is not defined.
	edge := [][6]byte{
		{0, 0, 1, 0, 1, 0},
		{1, 2, 32, 0, 3, 0},
		{2, 2, 39, 0, 0, 0},
		{0, 2, 31, 0, 160, 0},
		{1, 3, 0, 0, 32, 0},
		{2, 4, 0, 77, 0, 0},
		{0, 1, 3, 0, 2, 0},
	}
	// Header: stations, subfaults, nT−1, Dt index.
	f.Add(fuzzPatchBytes([]byte{3, 2, 31, 1}, nil))
	for _, e := range edge {
		f.Add(fuzzPatchBytes([]byte{3, 2, 31, 1}, [][6]byte{e}))
	}
	for dt := byte(0); dt < 3; dt++ {
		f.Add(fuzzPatchBytes([]byte{1, 2, 31, dt}, edge))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, r, noise := fuzzSet(data)
		want, err := referenceSynthesize(r, referenceExpand(g), noise, sim.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		canonicalNaNs(want)
		for _, asm := range []bool{true, false} {
			was := linalg.SetAsmKernels(asm)
			got, err := SynthesizeWaveforms(r, g, noise, sim.NewRNG(7))
			linalg.SetAsmKernels(was)
			if err != nil {
				t.Fatal(err)
			}
			canonicalNaNs(got)
			requireSameWaveforms(t, fmt.Sprintf("asm %v", asm), got, want)
		}
	})
}

// FuzzAddBox is a differential test of the box accumulation on
// arbitrary kernel samples: addBox, with the assembly kernels on and
// off, must reproduce the reference lag loop's bits, NaN payloads
// aside, over a run of entries into one record. The input is nT−1,
// an entry count and per entry (delay, lag count, frac index); then,
// per entry, a kernel of ±0 samples up to a prefix and fuzzSample
// values after it, and a lead no longer than the prefix.
func FuzzAddBox(f *testing.F) {
	// FuzzSynthesize's edge shapes at nT = 32: one sample left with
	// the lags running past it, every lag of the record, one lag, a
	// few lags, and an entry whose frac is zero.
	edge := [][3]byte{{31, 160, 1}, {0, 31, 3}, {2, 0, 4}, {3, 2, 1}, {7, 5, 7}}
	for _, e := range edge {
		f.Add(append([]byte{31, 1}, e[:]...))
	}
	all := []byte{31, byte(len(edge))}
	for _, e := range edge {
		all = append(all, e[:]...)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &fuzzBytes{data: data, state: uint64(len(data))}
		nT := 1 + int(b.next()%64)
		fracs := [...]float64{1, 2, 1.5, 0.5, -0.75, 3e-310, 1e300, 0}
		type entry struct {
			delay, nLag, lead int
			frac              float64
			kern              []float64
		}
		entries := make([]entry, b.next()%16)
		for i := range entries {
			e := &entries[i]
			e.delay = int(b.next()) % nT
			e.nLag = 1 + int(b.next())%(nT-e.delay)
			e.frac = fracs[b.next()%8]
		}
		for i := range entries {
			e := &entries[i]
			prefix := int(b.next()) % (nT + 1)
			e.kern = make([]float64, nT)
			for j := range e.kern {
				if j < prefix {
					e.kern[j] = math.Copysign(0, float64(int8(b.next())))
				} else {
					e.kern[j] = b.fuzzSample()
				}
			}
			e.lead = int(b.next()) % (prefix + 1)
		}
		want := make([]float64, nT)
		for _, e := range entries {
			for lag := 0; lag < e.nLag; lag++ {
				off := e.delay + lag
				for j := 0; j < nT-off; j++ {
					want[off+j] += e.frac * e.kern[j]
				}
			}
		}
		canonicalSamples(want)
		withAsm(t, func(t *testing.T, asm bool) {
			got := make([]float64, nT)
			for _, e := range entries {
				if e.delay+e.lead < nT {
					addBox(got, e.kern, e.frac, e.delay, e.lead, e.nLag)
				}
			}
			canonicalSamples(got)
			requireSameBits(t, fmt.Sprintf("asm %v", asm), got, want)
		})
	})
}
