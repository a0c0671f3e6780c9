// Package expt regenerates every figure in the paper's evaluation
// (Figs. 2–6) plus the §6 headline comparison, printing the same rows
// and series the paper reports, and this repository's ablations,
// Policy 3, elastic and chaos experiments. Every experiment is a named
// campaign in one registry (campaign.go): Run executes one in-process,
// and the same entry shards, schedules, merges and declares the
// experiment's CSV files. Each experiment takes an Options with a
// Scale knob: Scale 1.0 is the paper's full workload; smaller scales
// shrink waveform counts proportionally for quick runs while keeping
// the shapes.
package expt

import (
	"fmt"
	"io"

	"fdw/internal/core"
	"fdw/internal/obs"
	"fdw/internal/ospool"
	"fdw/internal/sim"
)

// Options configures an experiment run.
type Options struct {
	// Seeds are the repetition seeds; the paper runs three repetitions
	// of everything.
	Seeds []uint64
	// Scale multiplies waveform quantities (1.0 = paper size).
	Scale float64
	// Pool is the OSPool model configuration.
	Pool ospool.Config
	// Horizon bounds each simulated batch.
	Horizon sim.Time
	// Out receives the printed rows; nil discards them.
	Out io.Writer
	// Workers bounds how many independent simulations run concurrently
	// (the fdwexp -j flag). Each simulation owns a private Env, so any
	// value produces byte-identical reports; non-positive means
	// GOMAXPROCS.
	Workers int
	// Obs, if set, receives the experiment's metrics: each cell meters
	// into its own unclocked registry (no spans), absorbed into Obs in
	// canonical cell order, so Obs is byte-identical at any Workers
	// value. Reports/CSVs stay byte-identical with Obs on or off
	// (instrumentation is strictly passive). nil disables metrics.
	Obs *obs.Registry
}

// Seeds is the repetition seed list's first n entries, 11+13i: the
// seeds of fdwexp -seeds n and, for n = 3, of DefaultOptions.
// A non-positive n gives none, which Options validation rejects.
func Seeds(n int) []uint64 {
	var seeds []uint64
	for i := 0; i < n; i++ {
		seeds = append(seeds, uint64(11+13*i))
	}
	return seeds
}

// DefaultOptions mirrors the paper: three repetitions at full scale.
func DefaultOptions() Options {
	return Options{
		Seeds:   Seeds(3),
		Scale:   1.0,
		Pool:    ospool.DefaultConfig(),
		Horizon: 1000 * 3600,
	}
}

func (o Options) validate() error {
	if len(o.Seeds) == 0 {
		return fmt.Errorf("expt: no seeds")
	}
	if o.Scale <= 0 || o.Scale > 1 {
		return fmt.Errorf("expt: scale %v outside (0,1]", o.Scale)
	}
	if o.Horizon <= 0 {
		return fmt.Errorf("expt: non-positive horizon")
	}
	return o.Pool.Validate()
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// scaleN scales a paper waveform quantity, keeping it workable.
func (o Options) scaleN(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 16 {
		v = 16
	}
	return v
}

// workflowConfig is the default FDW workflow under a name (which also
// keys its Stash input), waveform count and seed.
func workflowConfig(name string, waveforms int, seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Name = name
	cfg.Waveforms = waveforms
	cfg.Seed = seed
	return cfg
}

// concurrentConfigs is the Fig. 3/4 batch: total waveforms split over
// n DAGMans named <prefix>-n<n>-d<d>, DAGMan d seeded seed*1000+d.
func concurrentConfigs(prefix string, n, total int, seed uint64) []core.Config {
	cfgs := make([]core.Config, n)
	for d := range cfgs {
		cfgs[d] = workflowConfig(fmt.Sprintf("%s-n%d-d%d", prefix, n, d), total/n, seed*1000+uint64(d))
	}
	return cfgs
}

// simulate is the one batch recipe: build a workflow per config in env,
// run attach (if non-nil) before the batch starts — fault injector,
// recovery policy, listener — then run to opt.Horizon. A failed batch
// returns its workflows alongside the error; a failed build does not.
func simulate(opt Options, env *core.Env, attach func(wfs []*core.Workflow) error, cfgs ...core.Config) ([]*core.Workflow, error) {
	wfs := make([]*core.Workflow, len(cfgs))
	for i, cfg := range cfgs {
		wf, err := core.NewWorkflow(cfg, env.Kernel, env.Pool, nil)
		if err != nil {
			return nil, err
		}
		wfs[i] = wf
	}
	if attach != nil {
		if err := attach(wfs); err != nil {
			return nil, err
		}
	}
	return wfs, core.RunBatch(env, wfs, opt.Horizon)
}

// runOne simulates one workflow, returning it and the kernel's end
// time (a campaign manifest's provenance).
func runOne(opt Options, cfg core.Config, seed uint64) (*core.Workflow, sim.Time, error) {
	env, err := core.NewEnvObs(seed, opt.Pool, opt.Obs)
	if err != nil {
		return nil, 0, err
	}
	wfs, err := simulate(opt, env, nil, cfg)
	if err != nil {
		return nil, 0, err
	}
	return wfs[0], env.Kernel.Now(), nil
}

// measureOne is runOne reduced to the run's measurements.
func measureOne(opt Options, cfg core.Config, seed uint64) (runResult, sim.Time, error) {
	wf, end, err := runOne(opt, cfg, seed)
	if err != nil {
		return runResult{}, 0, err
	}
	return runResult{RuntimeH: wf.RuntimeHours(), JPM: wf.ThroughputJPM(), Jobs: wf.Schedd.Completed()}, end, nil
}

// Fig2Row is one point of Fig. 2: a (station list, quantity) cell with
// its three-repetition statistics — formulas (1) and (2).
type Fig2Row struct {
	Stations  int
	Waveforms int
	Jobs      int

	RuntimeH   float64 // formula (1), hours
	RuntimeSD  float64
	RuntimeMin float64
	RuntimeMax float64

	ThroughputJPM float64 // formula (2)
	ThroughputSD  float64
}

// Fig2Quantities are the paper's six waveform quantities.
var Fig2Quantities = []int{1024, 2000, 5120, 10000, 24960, 50000}

// Fig3Row is one concurrency level of Fig. 3 — formulas (3) and (4).
type Fig3Row struct {
	DAGMans       int
	WaveformsEach int

	RuntimeH      float64 // formula (3), per-DAGMan average, hours
	RuntimeSD     float64
	RuntimeMin    float64
	RuntimeMax    float64
	ThroughputJPM float64 // formula (4), per-DAGMan average
	MakespanH     float64 // batch wall time (all DAGMans done), averaged
}

// Fig3Concurrency is the paper's DAGMan partition ladder.
var Fig3Concurrency = []int{1, 2, 4, 8}

// Fig3Total is the joint waveform target of §4.2.
const Fig3Total = 16000
