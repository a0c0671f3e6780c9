package core

import (
	"fmt"
	"io"

	"fdw/internal/dagman"
	"fdw/internal/htcondor"
	"fdw/internal/obs"
	"fdw/internal/ospool"
	"fdw/internal/sim"
	"fdw/internal/stash"
)

// BuildDAG constructs the FDW workflow graph for cfg:
//
//	[matrices] → phaseA ─┐
//	          └→ phaseB ─┴→ phaseC
//
// Phase A (ruptures) and phase B (Green's functions) both need the
// distance matrices but are mutually independent; phase C (waveforms)
// needs both. With RecycleMatrices the matrix node is pre-marked DONE,
// exactly how a rescue DAG resumes completed work.
func BuildDAG(cfg Config) (*dagman.DAG, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := dagman.NewDAG()
	d.Comments = append(d.Comments,
		fmt.Sprintf("FDW workflow %q: %d waveforms, %d stations", cfg.Name, cfg.Waveforms, cfg.Stations))
	matrix := &dagman.Node{Name: "matrices", SubmitFile: "fdw_matrices.sub", Done: cfg.RecycleMatrices}
	phaseA := &dagman.Node{Name: "phaseA", SubmitFile: "fdw_phase_a.sub", Retry: 2}
	phaseB := &dagman.Node{Name: "phaseB", SubmitFile: "fdw_phase_b.sub", Retry: 2}
	phaseC := &dagman.Node{Name: "phaseC", SubmitFile: "fdw_phase_c.sub", Retry: 2}
	for _, n := range []*dagman.Node{matrix, phaseA, phaseB, phaseC} {
		if err := d.AddNode(n); err != nil {
			return nil, err
		}
	}
	for _, e := range [][2]string{
		{"matrices", "phaseA"}, {"matrices", "phaseB"},
		{"phaseA", "phaseC"}, {"phaseB", "phaseC"},
	} {
		if err := d.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Workflow is one FDW run: a DAGMan executor with its own schedd
// identity attached to a pool.
type Workflow struct {
	Cfg    Config
	Exec   *dagman.Executor
	Schedd *htcondor.Schedd

	kernel *sim.Kernel
	rng    *sim.RNG
}

// NewWorkflow wires an FDW run into the kernel and pool. logW receives
// the HTCondor user log (may be nil). The schedd submission throttle
// mirrors DAGMan's default max-idle behaviour.
func NewWorkflow(cfg Config, k *sim.Kernel, pool *ospool.Pool, logW io.Writer) (*Workflow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d, err := BuildDAG(cfg)
	if err != nil {
		return nil, err
	}
	schedd := htcondor.NewSchedd(cfg.Name, k, htcondor.NewUserLog(logW))
	schedd.MaxIdleSubmit = 1000 // DAGMAN_MAX_JOBS_IDLE default
	schedd.SetObs(pool.Obs())
	pool.AddSchedd(schedd)
	rng := k.RNG().Split(cfg.Seed ^ 0xfd8)
	w := &Workflow{Cfg: cfg, Schedd: schedd, kernel: k, rng: rng}
	factory := func(n *dagman.Node) ([]*htcondor.Job, error) {
		switch n.Name {
		case "matrices":
			return buildJobs(cfg, PhaseMatrix, cfg.User, rng)
		case "phaseA":
			return buildJobs(cfg, PhaseA, cfg.User, rng)
		case "phaseB":
			return buildJobs(cfg, PhaseB, cfg.User, rng)
		case "phaseC":
			return buildJobs(cfg, PhaseC, cfg.User, rng)
		default:
			return nil, fmt.Errorf("core: unexpected DAG node %q", n.Name)
		}
	}
	w.Exec, err = dagman.NewExecutor(cfg.Name, d, k, schedd, factory)
	if err != nil {
		return nil, err
	}
	w.Exec.SetObs(pool.Obs())
	return w, nil
}

// Start begins the workflow.
func (w *Workflow) Start() error { return w.Exec.Start() }

// Done reports workflow completion.
func (w *Workflow) Done() bool { return w.Exec.Done() }

// RuntimeHours returns DAG wall time in hours.
func (w *Workflow) RuntimeHours() float64 { return w.Exec.RuntimeSeconds() / 3600 }

// ThroughputJPM returns total throughput in jobs/minute (formula (2)'s
// per-run term j/r).
func (w *Workflow) ThroughputJPM() float64 {
	secs := w.Exec.RuntimeSeconds()
	if secs <= 0 {
		return 0
	}
	return float64(w.Schedd.Completed()) / (secs / 60)
}

// Env bundles the shared simulation environment for FDW runs.
type Env struct {
	Kernel *sim.Kernel
	Pool   *ospool.Pool
	Cache  *stash.Cache
	Obs    *obs.Registry // nil when observability is off
}

// NewEnv builds a kernel + OSPool + Stash environment with the given
// seed and pool configuration, without observability.
func NewEnv(seed uint64, poolCfg ospool.Config) (*Env, error) {
	return NewEnvObs(seed, poolCfg, nil)
}

// NewEnvObs is NewEnv with a metrics registry attached to every
// subsystem (pool, schedds, executors, stash). The experiment harness
// gives every cell its own registry and absorbs the cells' snapshots
// in canonical order, so a rollup is the same at any worker count.
// reg == nil means no instrumentation.
func NewEnvObs(seed uint64, poolCfg ospool.Config, reg *obs.Registry) (*Env, error) {
	return NewEnvStash(seed, poolCfg, stash.DefaultConfig(), reg)
}

// NewEnvStash is NewEnvObs with a custom Stash configuration (the
// experiment harness's no-cache ablation).
func NewEnvStash(seed uint64, poolCfg ospool.Config, stashCfg stash.Config, reg *obs.Registry) (*Env, error) {
	k := sim.NewKernel(seed)
	cache, err := stash.New(stashCfg)
	if err != nil {
		return nil, err
	}
	cache.SetObs(reg)
	pool, err := ospool.New(k, poolCfg, cache)
	if err != nil {
		return nil, err
	}
	pool.SetObs(reg)
	return &Env{Kernel: k, Pool: pool, Cache: cache, Obs: reg}, nil
}

// NewMeteredEnv builds an environment with a fresh registry clocked by
// the environment's own kernel — the single-run case (cmd/fdw), where
// every metric timestamp is this simulation's time.
func NewMeteredEnv(seed uint64, poolCfg ospool.Config) (*Env, error) {
	reg := obs.NewRegistry(nil)
	env, err := NewEnvObs(seed, poolCfg, reg)
	if err != nil {
		return nil, err
	}
	reg.SetClock(env.Kernel.Now)
	return env, nil
}

// RunBatch launches the given workflows simultaneously (the paper's
// concurrent-DAGMans setup) and advances the simulation until all of
// them complete or the horizon passes. A horizon error carries the
// pool's Diagnostic.
func RunBatch(env *Env, workflows []*Workflow, horizon sim.Time) error {
	for _, w := range workflows {
		if err := w.Start(); err != nil {
			return err
		}
	}
	env.Pool.Start()
	allDone := func() bool {
		for _, w := range workflows {
			if !w.Done() {
				return false
			}
		}
		return true
	}
	for !allDone() && env.Kernel.Now() < horizon {
		if !env.Kernel.Step() {
			break
		}
	}
	env.Pool.Stop()
	for _, w := range workflows {
		if err := w.Schedd.Log().Flush(); err != nil {
			return fmt.Errorf("core: flushing %s user log: %w", w.Cfg.Name, err)
		}
	}
	if !allDone() {
		return fmt.Errorf("core: batch not finished by horizon %v: %s", horizon, env.Pool.Diagnostic())
	}
	return nil
}
