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
// time, so only one station's reference kernels (6 MB) are live rather
// than the full 743 MB set. The production set is ComputeGreens'
// parameter table, leads included, so synthesis expands and skips
// exactly as it does in production, and each scenario is synthesized
// with the assembly kernels on and off.
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

	got, err := ComputeGreens(f, stations, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := newRefGreens(cfg, stations, f.NumSubfaults())
	out := make([]Waveform, len(stations))
	scratch := newKernelScratch(cfg.Nsamples)
	skipped := 0
	for s := range stations {
		want.referenceComputeStation(f, d, s)
		for sf, w := range want.Kernel[s] {
			k := got.kernels(s, sf)
			for c := 0; c < 3; c++ {
				requireSameBits(t, fmt.Sprintf("kernel[%d][%d][%d]", s, sf, c), k[c], w[c])
			}
			lead := got.params[s][sf].lead
			if wl := referenceLead(w); lead != wl {
				t.Fatalf("station %d subfault %d: lead %d, reference %d", s, sf, lead, wl)
			}
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
				w := synthesizeStation(r, got, DefaultNoise(), &a, s, scratch)
				linalg.SetAsmKernels(was)
				requireSameWaveforms(t, fmt.Sprintf("scenario %d station %d asm %v", i, s, asm), []Waveform{w}, out[s:s+1])
			}
		}
		want.Kernel[s] = nil
	}
	if skipped == 0 {
		t.Fatal("every lead is 0: the ladder never exercised the leading-zero skip")
	}
}
