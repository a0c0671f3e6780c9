package fakequakes

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"fdw/internal/geom"
	"fdw/internal/linalg"
	"fdw/internal/sim"
)

// requireSameBits fails unless got and want hold the same float64 bits.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d is %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func requireSameWaveforms(t *testing.T, what string, got, want []Waveform) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d waveforms, reference %d", what, len(got), len(want))
	}
	for s := range got {
		if got[s].Station != want[s].Station || got[s].RuptureID != want[s].RuptureID || got[s].Dt != want[s].Dt {
			t.Fatalf("%s: waveform %d header %q/%q/%v, reference %q/%q/%v", what, s,
				got[s].RuptureID, got[s].Station, got[s].Dt, want[s].RuptureID, want[s].Station, want[s].Dt)
		}
		for c := 0; c < 3; c++ {
			requireSameBits(t, fmt.Sprintf("%s: station %d %s", what, s, Components[c]), got[s].ENZ[c], want[s].ENZ[c])
		}
	}
}

// withGOMAXPROCS runs fn at each worker count, restoring the old value.
func withGOMAXPROCS(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// requireSameGreens fails unless every kernel of got expands to the
// bits of want's sample kernel, and every lead of got is where want's
// kernels stop being ±0.
func requireSameGreens(t *testing.T, what string, got *GreensFunctions, want *refGreens) {
	t.Helper()
	if len(got.params) != len(want.Kernel) || got.NSub != want.NSub {
		t.Fatalf("%s: %d stations × %d subfaults, reference %d × %d", what, len(got.params), got.NSub, len(want.Kernel), want.NSub)
	}
	for s := range want.Kernel {
		for sf, w := range want.Kernel[s] {
			k := got.kernels(s, sf)
			for c := range k {
				requireSameBits(t, fmt.Sprintf("%s: kernel[%d][%d][%d]", what, s, sf, c), k[c], w[c])
			}
			if lead, wl := got.params[s][sf].lead, referenceLead(w); lead != wl {
				t.Fatalf("%s: station %d subfault %d lead %d, reference %d", what, s, sf, lead, wl)
			}
		}
	}
}

// requireSameSet fails unless got and want hold the same kernels and
// leads, bit for bit: got against want's own expansion.
func requireSameSet(t *testing.T, what string, got, want *GreensFunctions) {
	t.Helper()
	requireSameGreens(t, what, got, referenceExpand(want))
}

// withAsm runs fn with the assembly kernels on and then off, restoring
// the switch.
func withAsm(t *testing.T, fn func(t *testing.T, asm bool)) {
	for _, asm := range []bool{true, false} {
		was := linalg.SetAsmKernels(asm)
		fn(t, asm)
		linalg.SetAsmKernels(was)
	}
}

// TestComputeGreensMatchesReference requires the parameter table, as
// expand turns it into samples and as its leads fall, to reproduce the
// original per-sample loop bit for bit. Dt moves the ramp length (8, 4
// and 2 samples); 40 samples put the far stations' S arrival at or
// after the last sample, so all-zero kernels and kernels with every
// sample written are both covered.
func TestComputeGreensMatchesReference(t *testing.T) {
	f := smallFault(t)
	stations := geom.FullChileanStations()
	d := ComputeDistanceMatrices(f, stations)
	withGOMAXPROCS(t, func(t *testing.T) {
		for _, dt := range []float64{0.5, 1, 2} {
			cfg := GFConfig{Dt: dt, Nsamples: 40, VpKmS: 6.8, VsKmS: 3.9}
			got, err := ComputeGreens(f, stations, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceGreens(f, stations, d, cfg)
			withAsm(t, func(t *testing.T, asm bool) {
				requireSameGreens(t, fmt.Sprintf("Dt %v asm %v", dt, asm), got, want)
			})
			silent, arrived := 0, 0
			for s := range want.Kernel {
				for sf := range want.Kernel[s] {
					for _, w := range want.Kernel[s][sf] {
						if w[len(w)-1] == 0 {
							silent++
						} else {
							arrived++
						}
					}
				}
			}
			if silent == 0 || arrived == 0 {
				t.Fatalf("Dt %v: %d kernels silent, %d arrived; want both", dt, silent, arrived)
			}
		}
	})
}

// TestComputeGreensFootprint holds Phase B to its parameter table: at
// the benchmark geometry — 121 stations on the 20 km mesh, 500
// subfaults, 512 samples — one ComputeGreens allocates at most 8 MB,
// where a set of sample kernels takes 743 MB.
func TestComputeGreensFootprint(t *testing.T) {
	fc := geom.DefaultChileFault()
	fc.SubfaultKm = 20
	f, err := geom.BuildFault(fc)
	if err != nil {
		t.Fatal(err)
	}
	stations := geom.FullChileanStations()
	d := ComputeDistanceMatrices(f, stations)
	if len(stations) != 121 || f.NumSubfaults() != 500 {
		t.Fatalf("geometry %d stations × %d subfaults, want 121 × 500", len(stations), f.NumSubfaults())
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = ComputeGreens(f, stations, d, DefaultGFConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 8_000_000
	got := after.TotalAlloc - before.TotalAlloc
	if got > limit {
		t.Fatalf("ComputeGreens allocated %d bytes, want at most %d", got, limit)
	}
	t.Logf("ComputeGreens allocated %d bytes", got)
}

// edgeRupture is a generated rupture plus hand-built patch entries on
// the synthesis edge cases: zero slip, an onset at or past the last
// sample, a rise time whose lags run past the record (and one far past
// int range), a fractional onset, and a repeated subfault.
func edgeRupture(t *testing.T, f *geom.Fault, d *DistanceMatrices, nT int, dt float64) *Rupture {
	t.Helper()
	gen, err := NewGenerator(f, d)
	if err != nil {
		t.Fatal(err)
	}
	r, err := gen.GenerateMw("edge", 8.0, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	end := float64(nT) * dt
	for _, e := range []struct{ sf, slip, onset, rise float64 }{
		{0, 0, 1, 1},              // zero slip
		{1, 2, end, 3},            // delay == nT
		{2, 2, end + 7*dt, 0},     // delay > nT
		{3, 2, end - dt, 5 * end}, // one sample left, nRise ≫ nT
		{4, 1.5, 0, end},          // nRise == nT + 1
		{5, 1, 2.7 * dt, 1e300},   // nRise beyond int range
		{6, 0.5, 0.3, 0},          // fractional onset, one lag
		{0, 1, 3 * dt, 2 * dt},    // repeats subfault 0
	} {
		r.Patch = append(r.Patch, int(e.sf))
		r.SlipM = append(r.SlipM, e.slip)
		r.OnsetS = append(r.OnsetS, e.onset)
		r.RiseS = append(r.RiseS, e.rise)
	}
	return r
}

// TestSynthesizeMatchesReference requires Phase B's parameter table
// and the blocked Phase C loop over its expanded kernels to reproduce
// the original two loops bit for bit, noise included, at each Dt and
// worker count, with the assembly kernels on and off.
func TestSynthesizeMatchesReference(t *testing.T) {
	f, stations, d := smallSetup(t, 6)
	withGOMAXPROCS(t, func(t *testing.T) {
		for _, dt := range []float64{0.5, 1, 2} {
			cfg := GFConfig{Dt: dt, Nsamples: 96, VpKmS: 6.8, VsKmS: 3.9}
			g, err := ComputeGreens(f, stations, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceGreens(f, stations, d, cfg)
			r := edgeRupture(t, f, d, cfg.Nsamples, dt)
			for _, noise := range []NoiseConfig{{}, DefaultNoise()} {
				want, err := referenceSynthesize(r, ref, noise, sim.NewRNG(9))
				if err != nil {
					t.Fatal(err)
				}
				withAsm(t, func(t *testing.T, asm bool) {
					got, err := SynthesizeWaveforms(r, g, noise, sim.NewRNG(9))
					if err != nil {
						t.Fatal(err)
					}
					requireSameWaveforms(t, fmt.Sprintf("Dt %v noise %+v asm %v", dt, noise, asm), got, want)
				})
			}
		}
	})
}

// TestSynthesizeNoiseMatchesReference requires the chunked two-stage
// noise (PolarFill, then PolarNorm) to reproduce the reference loop's
// rng.Normal draws bit for bit for every noise model — none,
// white-only, walk-only (its white normal is still drawn, at σ 0) and
// the default — at record lengths on both sides of a chunk boundary,
// on the AVX2 transform and the portable one.
func TestSynthesizeNoiseMatchesReference(t *testing.T) {
	f, stations, d := smallSetup(t, 3)
	noises := []struct {
		name  string
		noise NoiseConfig
	}{
		{"none", NoiseConfig{}},
		{"white-only", NoiseConfig{WhiteSigmaM: 0.005}},
		{"walk-only", NoiseConfig{WalkSigmaM: 0.0005}},
		{"default", DefaultNoise()},
	}
	for _, nT := range []int{1, 3, noiseChunk - 1, noiseChunk, noiseChunk + 1, 513} {
		cfg := GFConfig{Dt: 1, Nsamples: nT, VpKmS: 6.8, VsKmS: 3.9}
		g, err := ComputeGreens(f, stations, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceGreens(f, stations, d, cfg)
		r := edgeRupture(t, f, d, nT, cfg.Dt)
		for _, n := range noises {
			want, err := referenceSynthesize(r, ref, n.noise, sim.NewRNG(21))
			if err != nil {
				t.Fatal(err)
			}
			for _, asm := range []bool{true, false} {
				was := linalg.SetAsmKernels(asm)
				got, err := SynthesizeWaveforms(r, g, n.noise, sim.NewRNG(21))
				linalg.SetAsmKernels(was)
				if err != nil {
					t.Fatal(err)
				}
				requireSameWaveforms(t, fmt.Sprintf("nT %d noise %s asm %v", nT, n.name, asm), got, want)
			}
		}
	}
}

// TestReferenceSpreadsHugeRise pins the reference loop's fix for a
// rise time past int range: its lag count used to overflow to a
// negative number, so the spec added nothing for the entry while
// synthesis added slip/1e300-scale terms. A lone such entry must now
// come out of both the same, and not all zero.
func TestReferenceSpreadsHugeRise(t *testing.T) {
	f, stations, d := smallSetup(t, 6)
	cfg := GFConfig{Dt: 1, Nsamples: 96, VpKmS: 6.8, VsKmS: 3.9}
	g, err := ComputeGreens(f, stations, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &Rupture{ID: "huge-rise", Patch: []int{5}, SlipM: []float64{1}, OnsetS: []float64{2.7}, RiseS: []float64{1e300}}
	got, err := SynthesizeWaveforms(r, g, NoiseConfig{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceSynthesize(r, referenceGreens(f, stations, d, cfg), NoiseConfig{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	requireSameWaveforms(t, "rise 1e300", got, want)
	// The terms are ~1e-304 m, too small for PGD's squares.
	moved := 0
	for _, w := range got {
		for _, x := range w.ENZ {
			for _, v := range x {
				if v != 0 {
					moved++
				}
			}
		}
	}
	if moved == 0 {
		t.Fatal("every sample is zero: the entry's terms were lost")
	}
}

// TestSynthesizeRejectsHostilePatch pins the fix for a patch that used
// to index outside a waveform inside a station goroutine (a negative
// onset panicked with "index out of range [-5]", and an onset past int
// range wrapped to a negative index): every such entry is now an error
// naming the rupture, the patch position and the subfault.
func TestSynthesizeRejectsHostilePatch(t *testing.T) {
	f, stations, d := smallSetup(t, 2)
	g, err := ComputeGreens(f, stations, d, GFConfig{Dt: 1, Nsamples: 32, VpKmS: 6.8, VsKmS: 3.9})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name              string
		sf                int
		slip, onset, rise float64
		want              string
	}{
		{"negative onset", 3, 1, -5, 1, "onset -5 s"},
		{"NaN onset", 3, 1, math.NaN(), 1, "onset NaN s"},
		{"infinite onset", 3, 1, math.Inf(1), 1, "onset +Inf s"},
		{"negative rise", 3, 1, 2, -1, "rise time -1 s"},
		{"infinite rise", 3, 1, 2, math.Inf(1), "rise time +Inf s"},
		{"NaN slip", 3, math.NaN(), 2, 1, "non-finite slip"},
		{"infinite slip", 3, math.Inf(-1), 2, 1, "non-finite slip"},
		{"negative subfault", -1, 1, 2, 1, "subfault -1 outside"},
		{"subfault past the set", g.NSub, 1, 2, 1, fmt.Sprintf("subfault %d outside", g.NSub)},
	}
	for _, tc := range cases {
		r := &Rupture{ID: "hostile",
			Patch: []int{0, tc.sf}, SlipM: []float64{1, tc.slip},
			OnsetS: []float64{0, tc.onset}, RiseS: []float64{1, tc.rise}}
		_, err := SynthesizeWaveforms(r, g, NoiseConfig{}, sim.NewRNG(1))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, part := range []string{`"hostile"`, "patch[1]", tc.want} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, part)
			}
		}
	}
	// A huge but finite onset is legal: it arrives after the record.
	late := &Rupture{ID: "late", Patch: []int{0}, SlipM: []float64{1}, OnsetS: []float64{1e300}, RiseS: []float64{1}}
	wfs, err := SynthesizeWaveforms(late, g, NoiseConfig{}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wfs {
		if w.PGD() != 0 {
			t.Fatalf("station %s moved before the rupture arrived", w.Station)
		}
	}
	// A kernel set whose station rows are missing is an error too.
	broken := *g
	broken.params = g.params[:1]
	if _, err := SynthesizeWaveforms(late, &broken, NoiseConfig{}, sim.NewRNG(1)); err == nil {
		t.Fatal("kernel set missing a station accepted")
	}
}

// TestSynthesizeRejectsMalformedKernels pins the checks on a set that
// does not describe itself: parameter rows missing a station or a
// subfault, a Cfg changed after the kernels were computed (a longer
// record used to be read past its kernels' end, and now would be read
// past the sample tables'), and a zero Dt, which once synthesized
// without error. Each is an error from SynthesizeWaveforms and
// ToRecords, naming the station where a row is at fault.
func TestSynthesizeRejectsMalformedKernels(t *testing.T) {
	f, stations, d := smallSetup(t, 2)
	cfg := GFConfig{Dt: 1, Nsamples: 16, VpKmS: 6.8, VsKmS: 3.9}
	g, err := ComputeGreens(f, stations, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &Rupture{ID: "r", Patch: []int{3}, SlipM: []float64{1}, OnsetS: []float64{0}, RiseS: []float64{2}}
	// altered returns a copy of g changed by fn; g itself stays as
	// ComputeGreens returned it.
	altered := func(fn func(h *GreensFunctions)) *GreensFunctions {
		h := *g
		fn(&h)
		return &h
	}
	cases := []struct {
		name string
		g    *GreensFunctions
		want string
	}{
		{"station row missing", altered(func(h *GreensFunctions) { h.params = g.params[:1] }),
			"kernel holds 1 stations, station list 2"},
		{"station row short a subfault", altered(func(h *GreensFunctions) {
			h.params = [][]kernelParams{g.params[0], g.params[1][:g.NSub-1]}
		}), fmt.Sprintf("station 1 kernel holds %d subfaults, want %d", g.NSub-1, g.NSub)},
		{"longer record", altered(func(h *GreensFunctions) { h.Cfg.Nsamples = 17 }), "Green's functions computed for"},
		{"slower S wave", altered(func(h *GreensFunctions) { h.Cfg.VsKmS = 3.5 }), "Green's functions computed for"},
		{"zero Dt", altered(func(h *GreensFunctions) { h.Cfg.Dt = 0 }), "non-positive Dt 0"},
	}
	for _, tc := range cases {
		_, err := SynthesizeWaveforms(r, tc.g, NoiseConfig{}, sim.NewRNG(1))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: SynthesizeWaveforms error %v, want %q", tc.name, err, tc.want)
		}
		if _, err := tc.g.ToRecords(3); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ToRecords error %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := SynthesizeWaveforms(r, g, NoiseConfig{}, sim.NewRNG(1)); err != nil {
		t.Fatalf("the well-formed set: %v", err)
	}
}
