//go:build !race

package fakequakes

import (
	"fmt"
	"testing"

	"fdw/internal/geom"
	"fdw/internal/linalg"
	"fdw/internal/sim"
)

// TestFullLadderMatchesReference checks both kernels against their
// references at the paper's geometry — 121 stations on the 20 km mesh
// (500 subfaults), 512 one-second samples — over the 16-scenario Mw
// ladder of the fq121 benchmark workloads. It goes one station at a
// time, so only one station's kernels (6 MB) are live rather than the
// full 743 MB set. The production set carries computeStation's leads,
// so synthesis skips the kernels' leading zeros as it does in
// ComputeGreens' sets, and each scenario is synthesized with the
// assembly kernels on and off.
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
	got := newGreens(cfg, stations, f.NumSubfaults())
	want := &GreensFunctions{Cfg: cfg, Stations: stations, NSub: f.NumSubfaults(), Kernel: make([][][3][]float64, len(stations))}
	out := make([]Waveform, len(stations))
	skipped := 0
	for s := range stations {
		got.computeStation(f, d, &tab, s)
		want.referenceComputeStation(f, d, s)
		for sf := range want.Kernel[s] {
			for c := 0; c < 3; c++ {
				requireSameBits(t, fmt.Sprintf("kernel[%d][%d][%d]", s, sf, c), got.Kernel[s][sf][c], want.Kernel[s][sf][c])
			}
		}
		for _, lead := range got.lead[s] {
			skipped += int(lead)
		}
		for i, r := range ruptures {
			b := rngs[i][s]
			if err := referenceSynthesizeStation(r, want, DefaultNoise(), &b, cfg.Nsamples, cfg.Dt, s, out); err != nil {
				t.Fatal(err)
			}
			for _, asm := range []bool{true, false} {
				a := rngs[i][s]
				was := linalg.SetAsmKernels(asm)
				w := synthesizeStation(r, got, DefaultNoise(), &a, s)
				linalg.SetAsmKernels(was)
				requireSameWaveforms(t, fmt.Sprintf("scenario %d station %d asm %v", i, s, asm), []Waveform{w}, out[s:s+1])
			}
		}
		got.Kernel[s], want.Kernel[s] = nil, nil
	}
	if skipped == 0 {
		t.Fatal("every lead is 0: the ladder never exercised the leading-zero skip")
	}
}
