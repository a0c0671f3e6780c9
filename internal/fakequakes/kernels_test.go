package fakequakes

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"fdw/internal/geom"
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

// TestComputeGreensMatchesReference requires the table-driven Phase B
// to reproduce the original per-sample loop bit for bit. Dt moves the
// ramp length (8, 4 and 2 samples); 40 samples put the far stations'
// S arrival at or after the last sample, so all-zero kernels and
// kernels with every sample written are both covered.
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
			silent, arrived := 0, 0
			for s := range want.Kernel {
				for sf := range want.Kernel[s] {
					for c := 0; c < 3; c++ {
						w := want.Kernel[s][sf][c]
						requireSameBits(t, fmt.Sprintf("Dt %v kernel[%d][%d][%d]", dt, s, sf, c), got.Kernel[s][sf][c], w)
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

// TestSynthesizeMatchesReference requires the re-sliced Phase C loop to
// reproduce the original one bit for bit, noise included, at each Dt
// and worker count.
func TestSynthesizeMatchesReference(t *testing.T) {
	f, stations, d := smallSetup(t, 6)
	withGOMAXPROCS(t, func(t *testing.T) {
		for _, dt := range []float64{0.5, 1, 2} {
			cfg := GFConfig{Dt: dt, Nsamples: 96, VpKmS: 6.8, VsKmS: 3.9}
			g, err := ComputeGreens(f, stations, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := edgeRupture(t, f, d, cfg.Nsamples, dt)
			for _, noise := range []NoiseConfig{{}, DefaultNoise()} {
				got, err := SynthesizeWaveforms(r, g, noise, sim.NewRNG(9))
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceSynthesize(r, g, noise, sim.NewRNG(9))
				if err != nil {
					t.Fatal(err)
				}
				requireSameWaveforms(t, fmt.Sprintf("Dt %v noise %+v", dt, noise), got, want)
			}
		}
	})
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
	broken := &GreensFunctions{Cfg: g.Cfg, Stations: g.Stations, NSub: g.NSub, Kernel: g.Kernel[:1]}
	if _, err := SynthesizeWaveforms(late, broken, NoiseConfig{}, sim.NewRNG(1)); err == nil {
		t.Fatal("kernel set missing a station accepted")
	}
}
