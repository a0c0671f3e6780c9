package expt

import (
	"fmt"

	"fdw/internal/fakequakes"
	"fdw/internal/geom"
	"fdw/internal/obs"
	"fdw/internal/sim"
)

// Fig1Products holds one rupture scenario and its GNSS waveforms — the
// data the paper visualizes in Fig. 1 (a simulated rupture's slip
// distribution on the fault and displacement waveforms at stations).
type Fig1Products struct {
	Rupture   *fakequakes.Rupture
	Waveforms []fakequakes.Waveform
	Fault     *geom.Fault
	Stations  []geom.Station
	Recycled  bool // distance matrices loaded from the recycling dir
}

// Fig1 runs the FakeQuakes kernels end-to-end on a coarse Chilean mesh
// for one target magnitude and a station subset, returning the Fig. 1
// data products. nStations controls cost (the paper plots a handful;
// the list has 121). recycleDir goes to
// fakequakes.RecycleDistanceMatrices, and never changes a product.
// reg, if non-nil, receives the rupture job's covariance-factor cache
// counters (fdw_covcache_*).
func Fig1(seed uint64, targetMw float64, nStations int, recycleDir string, reg *obs.Registry) (*Fig1Products, error) {
	all := geom.FullChileanStations()
	if nStations <= 0 || nStations > len(all) {
		return nil, fmt.Errorf("expt: %d stations requested, want 1 to %d (the Chilean station list)", nStations, len(all))
	}
	cfg := geom.DefaultChileFault()
	cfg.SubfaultKm = 20 // coarse mesh keeps the demo fast
	fault, err := geom.BuildFault(cfg)
	if err != nil {
		return nil, err
	}
	stations := all[:nStations]

	dist, recycled, err := fakequakes.RecycleDistanceMatrices(recycleDir, fault, stations)
	if err != nil {
		return nil, err
	}
	gen, err := fakequakes.NewGenerator(fault, dist)
	if err != nil {
		return nil, err
	}
	gen.Kern = fakequakes.VonKarmanApprox
	gen.Factors.SetObs(reg)
	rng := sim.NewRNG(seed)
	rupture, err := gen.GenerateMw("run000001", targetMw, rng)
	if err != nil {
		return nil, err
	}
	gf, err := fakequakes.ComputeGreens(fault, stations, dist, fakequakes.DefaultGFConfig())
	if err != nil {
		return nil, err
	}
	wfs, err := fakequakes.SynthesizeWaveforms(rupture, gf, fakequakes.DefaultNoise(), rng)
	if err != nil {
		return nil, err
	}
	return &Fig1Products{
		Rupture:   rupture,
		Waveforms: wfs,
		Fault:     fault,
		Stations:  stations,
		Recycled:  recycled,
	}, nil
}
