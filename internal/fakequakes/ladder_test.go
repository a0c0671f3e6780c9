//go:build !race

package fakequakes

import (
	"fmt"
	"testing"

	"fdw/internal/geom"
	"fdw/internal/sim"
)

// TestFullLadderMatchesReference checks both kernels against their
// references at the paper's geometry — 121 stations on the 20 km mesh
// (500 subfaults), 512 one-second samples — over the 16-scenario Mw
// ladder of the fq121 benchmark workloads. It goes one station at a
// time, so only one station's kernels (6 MB) are live rather than the
// full 743 MB set.
func TestFullLadderMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("121-station ladder skipped under -short")
	}
	fc := geom.DefaultChileFault()
	fc.SubfaultKm = 20
	f, err := geom.BuildFault(fc)
	if err != nil {
		t.Fatal(err)
	}
	stations := geom.FullChileanStations()
	d := ComputeDistanceMatrices(f, stations)
	gen, err := NewGenerator(f, d)
	if err != nil {
		t.Fatal(err)
	}
	gen.Kern = VonKarmanApprox
	cfg := DefaultGFConfig()

	// Each scenario's per-station RNGs, split as SynthesizeWaveforms
	// splits them.
	const scenarios = 16
	ruptures := make([]*Rupture, scenarios)
	rngs := make([][]sim.RNG, scenarios)
	for i := range ruptures {
		rng := sim.NewRNG(11).Split(uint64(i))
		mw := gen.MinMw + (float64(i)+0.5)*(gen.MaxMw-gen.MinMw)/scenarios
		if ruptures[i], err = gen.GenerateMw(fmt.Sprintf("run%06d", i), mw, rng); err != nil {
			t.Fatal(err)
		}
		rngs[i] = make([]sim.RNG, len(stations))
		for s := range stations {
			rngs[i][s] = *rng.Split(uint64(s) + 0x9e37)
		}
	}

	tab := newSampleTables(cfg)
	got := &GreensFunctions{Cfg: cfg, Stations: stations, NSub: f.NumSubfaults(), Kernel: make([][][3][]float64, len(stations))}
	want := &GreensFunctions{Cfg: cfg, Stations: stations, NSub: f.NumSubfaults(), Kernel: make([][][3][]float64, len(stations))}
	out := make([]Waveform, len(stations))
	for s := range stations {
		got.computeStation(f, d, &tab, s)
		want.referenceComputeStation(f, d, s)
		for sf := range want.Kernel[s] {
			for c := 0; c < 3; c++ {
				requireSameBits(t, fmt.Sprintf("kernel[%d][%d][%d]", s, sf, c), got.Kernel[s][sf][c], want.Kernel[s][sf][c])
			}
		}
		for i, r := range ruptures {
			a, b := rngs[i][s], rngs[i][s]
			w := synthesizeStation(r, got, DefaultNoise(), &a, s)
			if err := referenceSynthesizeStation(r, want, DefaultNoise(), &b, cfg.Nsamples, cfg.Dt, s, out); err != nil {
				t.Fatal(err)
			}
			requireSameWaveforms(t, fmt.Sprintf("scenario %d station %d", i, s), []Waveform{w}, out[s:s+1])
		}
		got.Kernel[s], want.Kernel[s] = nil, nil
	}
}
