package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"fdw/internal/expt"
	"fdw/internal/fakequakes"
	"fdw/internal/faults"
	"fdw/internal/geom"
	"fdw/internal/mseed"
	"fdw/internal/sched"
	"fdw/internal/sim"
)

// A workload is one of the paper's units of work. open builds its
// inputs and returns one pass over them plus what to release
// afterwards (cleanup may be nil, and is returned even with an error).
// BENCHMARK.json records why each workload is in the benchmark.
type workload struct {
	name string
	open func(c *child) (pass func(), cleanup func(), err error)
}

var workloads = []*workload{
	// An op is one RunCell of Fig. 2 or Fig. 3; a pass is all 48 cells
	// plus both reports.
	{"dagman-paper", openCampaigns(true, "fig2", "fig3")},
	// An op is one Fig. 5 or Fig. 6 cell, a burst.Simulate replay; a pass
	// is all 60. The first cell of each campaign builds its batch traces,
	// so the pool runs in set-up only.
	{"burst-sweep", openCampaigns(false, "fig5", "fig6")},
	{"fq121-cold", func(c *child) (func(), func(), error) { return openFQ121(c, false) }},
	{"fq121-gfcache", func(c *child) (func(), func(), error) { return openFQ121(c, true) }},
	{"sched-crash", openSchedCrash},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// options are the paper's three repetitions at scale 1: campaign seeds
// {s, s+12, s+36} give the paper's {11, 23, 47} at the default seed.
// One worker leaves the program's own kernels as the only parallelism.
func (c *child) options(s uint64) expt.Options {
	opt := expt.DefaultOptions()
	opt.Seeds = []uint64{s, s + 12, s + 36}
	opt.Workers = 1
	opt.Obs = c.reg
	return opt
}

// openCampaigns makes a workload whose pass runs every cell of the
// named campaigns, and with report their finalized reports.
func openCampaigns(report bool, names ...string) func(c *child) (func(), func(), error) {
	return func(c *child) (func(), func(), error) {
		var hs []*expt.CampaignHandle
		for _, name := range names {
			h, err := expt.OpenCampaign(name, c.options(c.seed))
			if err != nil {
				return nil, nil, err
			}
			hs = append(hs, h)
		}
		return func() {
			for _, h := range hs {
				c.campaignPass(h, report)
			}
		}, nil, nil
	}
}

// campaignPass runs every cell of h as one op, checking each cell's
// digest, and with report also the finalized report.
func (c *child) campaignPass(h *expt.CampaignHandle, report bool) {
	records := make(map[string]expt.CellRecord, len(h.CellIDs()))
	for _, id := range h.CellIDs() {
		c.op(h.Name()+"/"+id, func() ([]byte, error) {
			var rec expt.CellRecord
			err := c.span("expt.run_cell", func() (err error) {
				rec, err = h.RunCell(id)
				return err
			})
			if err != nil {
				return nil, err
			}
			records[id] = rec
			c.add("sim.simsecs_per_op", float64(rec.SimEnd))
			return []byte(rec.Digest), nil
		})
	}
	if !report {
		return
	}
	var out bytes.Buffer
	err := c.span("expt.finalize", func() error {
		_, err := h.Finalize(&out, records)
		return err
	})
	c.checkPass(h.Name()+"/report", out.Bytes(), err)
}

// fqScenarios is the number of FakeQuakes scenarios per pass.
const fqScenarios = 16

// openFQ121 runs FakeQuakes A→B→C at the paper's 121 stations on
// fqgen's 20 km mesh (500 subfaults). A pass is Phase B followed by
// fqScenarios scenarios; an op is one scenario: rupture, waveforms,
// and miniSEED encoding into memory. With cached, Phase B loads the
// kernels from a GFCache that set-up fills in a temp directory.
func openFQ121(c *child, cached bool) (func(), func(), error) {
	cfg := geom.DefaultChileFault()
	cfg.SubfaultKm = 20
	var fault *geom.Fault
	if err := c.span("geom.fault", func() (err error) {
		fault, err = geom.BuildFault(cfg)
		return err
	}); err != nil {
		return nil, nil, err
	}
	stations := geom.FullChileanStations()
	var dist *fakequakes.DistanceMatrices
	_ = c.span("fakequakes.distance", func() error {
		dist = fakequakes.ComputeDistanceMatrices(fault, stations)
		return nil
	})
	gen, err := fakequakes.NewGenerator(fault, dist)
	if err != nil {
		return nil, nil, err
	}
	gen.Kern = fakequakes.VonKarmanApprox
	gen.Factors.SetObs(c.reg)
	gfc := fakequakes.DefaultGFConfig()
	c.greensMB = float64(len(stations)*fault.NumSubfaults()*3*gfc.Nsamples*8) / 1e6

	phaseB := func() (g *fakequakes.GreensFunctions, err error) {
		err = c.span("fakequakes.greens", func() (err error) {
			g, err = fakequakes.ComputeGreens(fault, stations, dist, gfc)
			return err
		})
		return g, err
	}
	var cleanup func()
	if cached {
		dir, err := c.tempDir("fdwbench-gfcache-*")
		if err != nil {
			return nil, nil, err
		}
		cleanup = func() { c.removeAll(dir) }
		cache := fakequakes.NewGFCache(dir)
		cache.SetObs(c.reg)
		var filled *fakequakes.GreensFunctions
		if err := c.span("fakequakes.gfcache_fill", func() (err error) {
			filled, _, err = cache.LoadOrCompute(fault, stations, dist, gfc)
			return err
		}); err != nil {
			return nil, cleanup, err
		}
		// The reference pass synthesizes from the kernels the fill
		// computed, so every measured pass checks the loaded ones.
		phaseB = func() (g *fakequakes.GreensFunctions, err error) {
			if g, filled = filled, nil; g != nil {
				return g, nil
			}
			var hit bool
			err = c.span("fakequakes.gfcache_load", func() (err error) {
				g, hit, err = cache.LoadOrCompute(fault, stations, dist, gfc)
				return err
			})
			if err == nil && !hit {
				err = errors.New("greens cache missed: Phase B was recomputed")
			}
			return g, err
		}
	}
	return func() {
		g, gerr := phaseB()
		for i := 0; i < fqScenarios; i++ {
			c.op(fmt.Sprintf("scenario%d", i), func() ([]byte, error) {
				if gerr != nil {
					return nil, gerr
				}
				return c.scenario(gen, g, i)
			})
		}
	}, cleanup, nil
}

// scenario generates FakeQuakes scenario i from sim.NewRNG(seed).Split(i)
// and returns its waveforms encoded as miniSEED. Scenario i's target
// magnitude is the midpoint of the i-th of fqScenarios equal slices of
// the generator's range: synthesis cost grows with the rupture patch,
// so a fixed ladder keeps each pass's work alike for every seed, which
// moves patches, slip, hypocentres and noise.
func (c *child) scenario(gen *fakequakes.Generator, g *fakequakes.GreensFunctions, i int) ([]byte, error) {
	rng := sim.NewRNG(c.seed).Split(uint64(i))
	mw := gen.MinMw + (float64(i)+0.5)*(gen.MaxMw-gen.MinMw)/fqScenarios
	var r *fakequakes.Rupture
	if err := c.span("fakequakes.rupture", func() (err error) {
		r, err = gen.GenerateMw(fmt.Sprintf("run%06d", i), mw, rng)
		return err
	}); err != nil {
		return nil, err
	}
	var wfs []fakequakes.Waveform
	if err := c.span("fakequakes.synth", func() (err error) {
		wfs, err = fakequakes.SynthesizeWaveforms(r, g, fakequakes.DefaultNoise(), rng)
		return err
	}); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	err := c.span("mseed.encode", func() error {
		var recs []mseed.Record
		for k := range wfs {
			recs = append(recs, wfs[k].ToRecords()...)
		}
		return mseed.Write(&out, recs)
	})
	c.add("mseed.mb_per_op", float64(out.Len())/1e6)
	return out.Bytes(), err
}

// schedCampaigns is the number of chaos campaigns a sched-crash pass
// schedules. Campaign k runs seeds {s+100k, s+100k+12, s+100k+36}, so
// k = 0 is the paper's; what a campaign costs depends on its seeds, and
// several per pass keep a run's work alike for every seed.
const schedCampaigns = 4

// openSchedCrash: an op is one chaos campaign run through sched.Run —
// 4 logical workers, crash plan "everything", stealing on, bundles
// checkpointed to a fresh temp directory — and merged back with
// MergeManifestFiles. Its report must equal the unscheduled report
// that set-up builds.
func openSchedCrash(c *child) (func(), func(), error) {
	plan, err := faults.WorkerPlanByName("everything")
	if err != nil {
		return nil, nil, err
	}
	var ops []func()
	for k := uint64(0); k < schedCampaigns; k++ {
		op, err := c.scheduledCampaign(c.options(c.seed+100*k), plan, fmt.Sprintf("report%d", k))
		if err != nil {
			return nil, nil, err
		}
		ops = append(ops, op)
	}
	return func() {
		for _, op := range ops {
			op()
		}
	}, nil, nil
}

// scheduledCampaign records the unscheduled chaos report for opt as
// the reference for key and returns the scheduled op.
func (c *child) scheduledCampaign(opt expt.Options, plan faults.WorkerPlan, key string) (func(), error) {
	h, err := expt.OpenCampaign("chaos", opt)
	if err != nil {
		return nil, err
	}
	records := make(map[string]expt.CellRecord, len(h.CellIDs()))
	for _, id := range h.CellIDs() {
		if records[id], err = h.RunCell(id); err != nil {
			return nil, err
		}
	}
	var report bytes.Buffer
	if _, err := h.Finalize(&report, records); err != nil {
		return nil, err
	}
	if err := c.check(key, report.Bytes()); err != nil {
		return nil, err
	}
	src := &countingSource{Source: h, c: c}
	return func() {
		dir, derr := c.tempDir("fdwbench-bundles-*")
		defer c.removeAll(dir)
		var res *sched.Result
		c.op(key, func() ([]byte, error) {
			if derr != nil {
				return nil, derr
			}
			src.cells = 0
			err := c.span("sched.run", func() (err error) {
				res, err = sched.Run(src, sched.Config{Workers: 4, Steal: true, Plan: plan, Dir: dir, Obs: c.reg})
				return err
			})
			if err != nil {
				return nil, err
			}
			var out bytes.Buffer
			opt.Out = &out
			err = c.span("expt.merge", func() error {
				_, err := expt.MergeManifestFiles(opt, res.BundlePaths)
				return err
			})
			return out.Bytes(), err
		})
		if res != nil {
			c.untimed(func() { c.schedCounts(h, src.cells, res) })
		}
	}, nil
}

// schedCounts records one scheduled run's per-layer counts.
func (c *child) schedCounts(h *expt.CampaignHandle, executed int, res *sched.Result) {
	var simsecs float64
	for _, id := range h.CellIDs() {
		simsecs += float64(res.Records[id].SimEnd)
	}
	var bundle int64
	for _, p := range res.BundlePaths {
		if fi, err := os.Stat(p); err == nil {
			bundle += fi.Size()
		}
	}
	c.add("sim.simsecs_per_op", simsecs)
	c.add("sched.bundle_kb", float64(bundle)/1e3)
	c.add("sched.cells_executed_per_op", float64(executed))
	c.add("sched.useful_ratio", float64(len(h.CellIDs()))/float64(executed))
	c.add("sched.checkpoints_per_op", float64(res.Stats.Checkpoints))
	c.add("sched.steals_per_op", float64(res.Stats.CellsStolen))
	c.add("sched.duplicates_per_op", float64(res.Stats.Duplicates))
	c.add("sched.requeued_per_op", float64(res.Stats.CellsRequeued))
}

// countingSource times and counts every cell the scheduler executes,
// re-executions after crashes and steals included.
type countingSource struct {
	sched.Source
	c     *child
	cells int
}

func (s *countingSource) RunCell(id string) (rec expt.CellRecord, err error) {
	s.cells++
	err = s.c.span("expt.run_cell", func() (err error) {
		rec, err = s.Source.RunCell(id)
		return err
	})
	return rec, err
}
