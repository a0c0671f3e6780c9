package expt

import (
	"fmt"
	"io"

	"fdw/internal/core"
	"fdw/internal/faults"
	"fdw/internal/htcondor"
	"fdw/internal/recovery"
	"fdw/internal/sim"
)

// The chaos sweep runs the Fig. 2-scale FDW workflow under the
// standard fault-plan grid (faults.StandardPlans) as a recovery A/B
// matrix — every plan runs once with recovery off and once with the
// adaptive recovery policy (internal/recovery) on — and asserts the
// invariants the paper's value proposition rests on:
//
//  1. termination — the executor reaches Done before the horizon for
//     every cell (no deadlock or hang, even when the DAG fails);
//  2. job conservation — every submitted job is accounted for:
//     submitted = completed-ok + failed (non-zero exit) + removed;
//  3. determinism — for a fixed seed the printed report and rows are
//     byte-identical at any Workers value and GOMAXPROCS.
//
// The recovery-off arm is constructed exactly as before the recovery
// layer existed, so its rows double as a baseline-regression check. An
// invariant violation is returned as an error (the sweep is a test
// harness as much as an experiment).

// ChaosRow is one (plan, seed, recovery) cell of the chaos matrix.
type ChaosRow struct {
	Plan     string
	Seed     uint64
	Recovery bool // adaptive recovery policy attached

	DAGDone   bool // executor terminated before the horizon
	DAGFailed bool // at least one node exhausted its retries

	Submitted   int // jobs accepted by the schedd
	CompletedOK int // terminated with exit 0
	FailedJobs  int // terminated with non-zero exit
	Removed     int // removed/offloaded before running

	NodeRetries int     // DAGMan RETRY budget spent across nodes
	Evictions   int     // pool preemptions + job-level requeues
	RuntimeH    float64 // DAG wall time, hours
	GoodputJPM  float64 // completed-ok jobs per makespan minute
	WastedCPUH  float64 // slot hours that produced no completed work
}

// chaosWorkflowConfig is the swept workload: the Fig. 2 full-station
// cell at the smallest paper quantity, shrunk by opt.Scale.
func chaosWorkflowConfig(opt Options, plan string, seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Name = fmt.Sprintf("chaos-%s", plan)
	cfg.Waveforms = opt.scaleN(Fig2Quantities[0])
	cfg.Seed = seed
	return cfg
}

// chaosRecoveryConfig is the recovery-on arm's policy configuration:
// opt.Recovery when set, the tuned defaults otherwise.
func chaosRecoveryConfig(opt Options) recovery.Config {
	if opt.Recovery != nil {
		return *opt.Recovery
	}
	return recovery.DefaultConfig()
}

// Chaos runs the recovery A/B chaos matrix and returns one row per
// (plan, seed, recovery) cell in grid order, recovery-off before
// recovery-on within each (plan, seed). Rows and per-plan deltas are
// printed to opt.Out; the fan-out across opt.Workers leaves the bytes
// identical to a serial run. The matrix is a shardable campaign
// (campaign.go), so fdwexp -shard/-merge covers it too.
func Chaos(opt Options) ([]ChaosRow, error) {
	rows, err := runCampaign(chaosCampaign(), opt)
	if err != nil {
		return nil, err
	}
	return rows.([]ChaosRow), nil
}

// printChaosReport renders the full matrix plus per-plan deltas —
// shared by the unsharded path and the campaign merge finalizer.
func printChaosReport(opt Options, rows []ChaosRow) {
	w := opt.out()
	plans := faults.StandardPlans()
	fmt.Fprintf(w, "Chaos sweep — %d fault plans × %d seeds × recovery {off,on} (scale %.3f)\n",
		len(plans), len(opt.Seeds), opt.Scale)
	fmt.Fprintf(w, "%15s %6s %4s %5s %6s | %6s %6s %6s %7s | %7s %6s %10s %8s %9s\n",
		"plan", "seed", "rec", "done", "dagok",
		"jobs", "ok", "fail", "removed",
		"retries", "evict", "runtime h", "jpm", "wasted h")
	for _, r := range rows {
		dagok := "ok"
		if r.DAGFailed {
			dagok = "FAILED"
		}
		rec := "off"
		if r.Recovery {
			rec = "on"
		}
		fmt.Fprintf(w, "%15s %6d %4s %5t %6s | %6d %6d %6d %7d | %7d %6d %10.2f %8.2f %9.2f\n",
			r.Plan, r.Seed, rec, r.DAGDone, dagok,
			r.Submitted, r.CompletedOK, r.FailedJobs, r.Removed,
			r.NodeRetries, r.Evictions, r.RuntimeH, r.GoodputJPM, r.WastedCPUH)
	}
	printChaosDeltas(w, rows)
}

// printChaosDeltas summarizes recovery-on minus recovery-off per
// (plan, seed) pair and the improve-or-tie tally the acceptance
// criterion tracks.
func printChaosDeltas(w io.Writer, rows []ChaosRow) {
	fmt.Fprintf(w, "Recovery deltas (on − off):\n")
	fmt.Fprintf(w, "%15s %6s | %11s %13s %8s\n", "plan", "seed", "makespan h", "wasted cpu-h", "retries")
	type pairKey struct {
		plan string
		seed uint64
	}
	off := map[pairKey]ChaosRow{}
	for _, r := range rows {
		if !r.Recovery {
			off[pairKey{r.Plan, r.Seed}] = r
		}
	}
	for _, r := range rows {
		if !r.Recovery {
			continue
		}
		o := off[pairKey{r.Plan, r.Seed}]
		fmt.Fprintf(w, "%15s %6d | %+11.2f %+13.2f %+8d\n",
			r.Plan, r.Seed, r.RuntimeH-o.RuntimeH, r.WastedCPUH-o.WastedCPUH,
			r.NodeRetries-o.NodeRetries)
	}
	improved, total := ChaosImprovedOrTied(rows)
	fmt.Fprintf(w, "improved-or-tied (makespan AND wasted cpu): %d/%d plans\n", improved, total)
}

// ChaosImprovedOrTied counts plans where every recovery-on cell is no
// worse than its recovery-off twin on both makespan and wasted CPU,
// returning (improved, total plans).
func ChaosImprovedOrTied(rows []ChaosRow) (improved, total int) {
	type pairKey struct {
		plan string
		seed uint64
	}
	off := map[pairKey]ChaosRow{}
	for _, r := range rows {
		if !r.Recovery {
			off[pairKey{r.Plan, r.Seed}] = r
		}
	}
	ok := map[string]bool{}
	var order []string
	for _, r := range rows {
		if !r.Recovery {
			continue
		}
		if _, seen := ok[r.Plan]; !seen {
			ok[r.Plan] = true
			order = append(order, r.Plan)
		}
		o := off[pairKey{r.Plan, r.Seed}]
		if r.RuntimeH > o.RuntimeH || r.WastedCPUH > o.WastedCPUH {
			ok[r.Plan] = false
		}
	}
	for _, p := range order {
		if ok[p] {
			improved++
		}
	}
	return improved, len(order)
}

// chaosOne simulates one (plan, seed, recovery) cell and checks its
// invariants, returning the row and the cell's final sim-clock reading
// (campaign-manifest provenance). The recovery-off arm builds env →
// workflow → injector exactly as the pre-recovery sweep did; the
// recovery-on arm creates the policy last, so the injector's RNG
// stream is unchanged between arms.
func chaosOne(opt Options, plan faults.Plan, seed uint64, rec bool) (ChaosRow, sim.Time, error) {
	var row ChaosRow
	env, err := core.NewEnvObs(seed, opt.Pool, opt.Obs)
	if err != nil {
		return row, 0, err
	}
	wf, err := core.NewWorkflow(chaosWorkflowConfig(opt, plan.Name, seed), env.Kernel, env.Pool, nil)
	if err != nil {
		return row, 0, err
	}
	inj, err := faults.New(env.Kernel, plan)
	if err != nil {
		return row, 0, err
	}
	inj.SetObs(opt.Obs)
	inj.Attach(env.Pool, wf.Schedd)
	if rec {
		pol, err := recovery.New(env.Kernel, chaosRecoveryConfig(opt))
		if err != nil {
			return row, 0, err
		}
		pol.SetObs(opt.Obs)
		pol.Attach(env.Pool, wf.Schedd)
		pol.AttachExecutor(wf.Exec)
	}
	// Invariant 1 (termination): RunBatch errors iff the executor did
	// not reach Done by the horizon. A DAG whose node exhausted its
	// retries still terminates — that is the recovery contract under
	// test.
	if err := core.RunBatch(env, []*core.Workflow{wf}, opt.Horizon); err != nil {
		return row, 0, fmt.Errorf("termination invariant: %w", err)
	}

	var ok, failed, removed int
	for _, j := range wf.Schedd.AllJobs() {
		switch {
		case j.Status == htcondor.Completed && j.ExitCode == 0:
			ok++
		case j.Status == htcondor.Completed:
			failed++
		case j.Status == htcondor.Removed:
			removed++
		default:
			return row, 0, fmt.Errorf("conservation invariant: job %s ended in state %v", j.ID(), j.Status)
		}
	}
	submitted := len(wf.Schedd.AllJobs())
	if submitted != ok+failed+removed {
		return row, 0, fmt.Errorf("conservation invariant: submitted %d != ok %d + failed %d + removed %d",
			submitted, ok, failed, removed)
	}

	_, _, evictions := env.Pool.Stats()
	row = ChaosRow{
		Plan:        plan.Name,
		Seed:        seed,
		Recovery:    rec,
		DAGDone:     wf.Exec.Done(),
		DAGFailed:   wf.Exec.Failed(),
		Submitted:   submitted,
		CompletedOK: ok,
		FailedJobs:  failed,
		Removed:     removed,
		NodeRetries: wf.Exec.TotalRetries(),
		Evictions:   evictions,
		RuntimeH:    wf.RuntimeHours(),
		WastedCPUH:  env.Pool.WastedSeconds() / 3600,
	}
	if mins := row.RuntimeH * 60; mins > 0 {
		row.GoodputJPM = float64(ok) / mins
	}
	if !row.DAGDone {
		return row, 0, fmt.Errorf("termination invariant: executor not done after RunBatch")
	}
	return row, env.Kernel.Now(), nil
}

// WriteChaosCSV writes the chaos-matrix rows.
func WriteChaosCSV(w io.Writer, rows []ChaosRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.Plan, fmt.Sprintf("%d", r.Seed), fmt.Sprintf("%t", r.Recovery),
			fmt.Sprintf("%t", r.DAGDone), fmt.Sprintf("%t", r.DAGFailed),
			d(r.Submitted), d(r.CompletedOK), d(r.FailedJobs), d(r.Removed),
			d(r.NodeRetries), d(r.Evictions), f(r.RuntimeH), f(r.GoodputJPM), f(r.WastedCPUH),
		}
	}
	return writeCSV(w, []string{
		"plan", "seed", "recovery", "dag_done", "dag_failed",
		"submitted", "completed_ok", "failed", "removed",
		"node_retries", "evictions", "runtime_h", "goodput_jpm", "wasted_cpu_h",
	}, out)
}
