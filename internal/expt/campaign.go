package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"fdw/internal/burst"
	"fdw/internal/core"
	"fdw/internal/faults"
	"fdw/internal/obs"
	"fdw/internal/sim"
	"fdw/internal/stats"
	"fdw/internal/wtrace"
)

// A campaign is a shardable experiment: a canonically ordered list of
// independent cells (one simulation each, identified by a stable
// string), a per-cell runner, and a finalizer that aggregates the
// per-cell results into the printed report and figure rows. The
// unsharded figure entry points (Fig2, Fig3, Fig5, Fig6, Chaos) run
// every cell locally and finalize; the shard runner (shard.go) runs
// one deterministic subset and persists results in a manifest, and the
// merger re-finalizes from manifests — through the *same* finalize
// code path, which is what makes merged output byte-identical to an
// unsharded run (DESIGN.md §13).
type campaign struct {
	name    string
	csvName string
	// cells enumerates the canonical cell id list. Ids must be unique
	// and stable: they never depend on worker count, map order, or which
	// shard is running.
	cells func(opt Options) ([]string, error)
	// run computes cell i's result — pure, independent of every other
	// cell — returning the result, the cell simulation's final
	// sim-clock reading (manifest provenance), and the cell's own
	// metrics registry (nil when opt.Obs is).
	run func(opt Options, ctx *campaignCtx, i int) (any, sim.Time, *obs.Registry, error)
	// decode unmarshals one stored cell result (manifest JSON).
	decode func(raw json.RawMessage) (any, error)
	// finalize aggregates results (canonical cell order) into the
	// printed report on opt.Out and returns the figure rows.
	finalize func(opt Options, results []any) (any, error)
	// writeCSV renders finalize's rows as the figure CSV.
	writeCSV func(w io.Writer, rows any) error
}

// campaignCtx carries per-invocation shared state across cell runs:
// the Fig. 5/6 batch traces, generated once per process on demand so
// every shard rebuilds them deterministically instead of depending on
// another shard's output.
type campaignCtx struct {
	traceOnce sync.Once
	batches   []wtrace.BatchRecord
	jobs      [][]wtrace.JobRecord
	traceErr  error
}

func (ctx *campaignCtx) traces(opt Options) ([]wtrace.BatchRecord, [][]wtrace.JobRecord, error) {
	ctx.traceOnce.Do(func() {
		opt.Obs = nil // a shared input, metered by no cell
		ctx.batches, ctx.jobs, ctx.traceErr = MakeBatchTraces(opt)
	})
	return ctx.batches, ctx.jobs, ctx.traceErr
}

// campaigns is the shardable campaign registry, in dispatch order.
var campaigns = []*campaign{
	fig2Campaign(),
	fig3Campaign(),
	fig5Campaign("fig5", 1.0, "Fig. 5"),
	fig5Campaign("fig6", burst.DefaultMaxBurstFraction, "Fig. 6"),
	chaosCampaign(),
}

// ShardableCampaigns lists the campaigns fdwexp can run as -shard i/N.
func ShardableCampaigns() []string {
	out := make([]string, len(campaigns))
	for i, c := range campaigns {
		out[i] = c.name
	}
	return out
}

func campaignByName(name string) (*campaign, error) {
	for _, c := range campaigns {
		if c.name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("expt: %q is not a shardable campaign (have %v)", name, ShardableCampaigns())
}

// checkCellIDs enforces the id contract: non-empty and unique.
func checkCellIDs(campaign string, ids []string) ([]string, error) {
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("expt: %s enumerated an empty cell id", campaign)
		}
		if seen[id] {
			return nil, fmt.Errorf("expt: %s cell id %q is not unique (seeds must be distinct)", campaign, id)
		}
		seen[id] = true
	}
	return ids, nil
}

// runCampaign executes every cell locally, absorbs the cells' metrics
// into opt.Obs in canonical order, and finalizes — the path behind
// every experiment entry point, and the one fan-out besides RunShard.
func runCampaign(c *campaign, opt Options) (any, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	ids, err := c.cells(opt)
	if err != nil {
		return nil, err
	}
	ctx := &campaignCtx{}
	results := make([]any, len(ids))
	regs := make([]*obs.Registry, len(ids))
	err = forEachIndex(opt.workers(), len(ids), func(i int) error {
		r, _, reg, err := c.run(opt, ctx, i)
		if err != nil {
			return err
		}
		results[i], regs[i] = r, reg
		return nil
	})
	if err != nil {
		return nil, err
	}
	if opt.Obs != nil {
		for i, reg := range regs {
			if err := opt.Obs.Absorb(reg.Snapshot()); err != nil {
				return nil, fmt.Errorf("expt: %s cell %s: %w", c.name, ids[i], err)
			}
		}
	}
	return c.finalize(opt, results)
}

// decodeInto is the generic manifest-result decoder.
func decodeInto[T any](raw json.RawMessage) (any, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("expt: bad cell result: %w", err)
	}
	return v, nil
}

// runAs is runCampaign with the rows asserted to the entry point's type.
func runAs[T any](c *campaign, opt Options) (T, error) {
	rows, err := runCampaign(c, opt)
	if err != nil {
		var zero T
		return zero, err
	}
	return rows.(T), nil
}

// newCampaign builds a campaign from typed parts: list enumerates the
// cells in canonical order and id names each. The run wrapper, the one
// place every executor runs a cell, meters a metered cell into its own
// unclocked registry and wraps every run error once as
// "expt: <name> cell <id>: ...". writeCSV is nil outside the shardable
// registry.
func newCampaign[C, R any](name, csvName string,
	list func(opt Options) []C,
	id func(c C) string,
	run func(opt Options, ctx *campaignCtx, c C) (R, sim.Time, error),
	finalize func(opt Options, results []R) (any, error),
	writeCSV func(w io.Writer, rows any) error,
) *campaign {
	return &campaign{
		name:    name,
		csvName: csvName,
		cells: func(opt Options) ([]string, error) {
			cells := list(opt)
			ids := make([]string, len(cells))
			for i, c := range cells {
				ids[i] = id(c)
			}
			return checkCellIDs(name, ids)
		},
		run: func(opt Options, ctx *campaignCtx, i int) (any, sim.Time, *obs.Registry, error) {
			c := list(opt)[i]
			if opt.Obs != nil {
				opt.Obs = obs.NewRegistry(nil)
			}
			r, end, err := run(opt, ctx, c)
			if err != nil {
				return nil, 0, nil, fmt.Errorf("expt: %s cell %s: %w", name, id(c), err)
			}
			return r, end, opt.Obs, nil
		},
		decode: decodeInto[R],
		finalize: func(opt Options, results []any) (any, error) {
			typed := make([]R, len(results))
			for i, r := range results {
				typed[i] = r.(R)
			}
			return finalize(opt, typed)
		},
		writeCSV: writeCSV,
	}
}

// ---------------------------------------------------------------- fig2

type fig2Cell struct {
	stations int
	quantity int // paper quantity, unscaled; scaled by opt at run time
	seed     uint64
}

// runResult is one single-workflow run's measurements (Fig. 2, headline).
type runResult struct {
	RuntimeH float64 `json:"runtime_h"`
	JPM      float64 `json:"jpm"`
	Jobs     int     `json:"jobs"`
}

// fig2Cells flattens the sweep: stations outer, quantity inner, seeds
// innermost — fig2 finalize aggregates with the same indexing.
func fig2Cells(opt Options) []fig2Cell {
	var cells []fig2Cell
	for _, stations := range []int{2, 121} {
		for _, q := range Fig2Quantities {
			for _, seed := range opt.Seeds {
				cells = append(cells, fig2Cell{stations, q, seed})
			}
		}
	}
	return cells
}

func fig2Campaign() *campaign {
	return newCampaign("fig2", "fig2.csv", fig2Cells,
		func(c fig2Cell) string { return fmt.Sprintf("s%d/q%d/seed%d", c.stations, c.quantity, c.seed) },
		func(opt Options, _ *campaignCtx, c fig2Cell) (runResult, sim.Time, error) {
			n := opt.scaleN(c.quantity)
			cfg := workflowConfig(fmt.Sprintf("fig2-s%d-q%d", c.stations, n), n, c.seed)
			cfg.Stations = c.stations
			return measureOne(opt, cfg, c.seed)
		},
		func(opt Options, results []runResult) (any, error) {
			w := opt.out()
			fmt.Fprintf(w, "Fig. 2 — increasing earthquake simulation quantities (scale %.2f, %d reps)\n", opt.Scale, len(opt.Seeds))
			fmt.Fprintf(w, "%8s %9s %7s | %21s | %18s\n", "stations", "waveforms", "jobs", "avg runtime h (sd)", "avg JPM (sd)")
			reps := len(opt.Seeds)
			cells := fig2Cells(opt)
			var rows []Fig2Row
			for ci := 0; ci < len(cells); ci += reps {
				var rts, jpms, jobs []float64
				for _, res := range results[ci : ci+reps] {
					rts = append(rts, res.RuntimeH)
					jpms = append(jpms, res.JPM)
					jobs = append(jobs, float64(res.Jobs))
				}
				c := cells[ci]
				row := Fig2Row{
					Stations:      c.stations,
					Waveforms:     opt.scaleN(c.quantity),
					Jobs:          int(stats.Mean(jobs)),
					RuntimeH:      stats.AvgTotalRuntime(rts),
					RuntimeSD:     stats.SD(rts),
					RuntimeMin:    stats.Min(rts),
					RuntimeMax:    stats.Max(rts),
					ThroughputJPM: stats.Mean(jpms),
					ThroughputSD:  stats.SD(jpms),
				}
				rows = append(rows, row)
				fmt.Fprintf(w, "%8d %9d %7d | %10.2f (%6.2f) | %10.2f (%5.2f)\n",
					row.Stations, row.Waveforms, row.Jobs,
					row.RuntimeH, row.RuntimeSD, row.ThroughputJPM, row.ThroughputSD)
			}
			return rows, nil
		},
		func(w io.Writer, rows any) error { return WriteFig2CSV(w, rows.([]Fig2Row)) })
}

// ---------------------------------------------------------------- fig3

type fig3Cell struct {
	dagmans int
	seed    uint64
}

// fig3Result is one (concurrency level, seed) batch: per-DAGMan
// measurements in DAGMan order plus the batch makespan.
type fig3Result struct {
	RuntimeHs []float64 `json:"runtime_hs"`
	JPMs      []float64 `json:"jpms"`
	MakespanH float64   `json:"makespan_h"`
}

func fig3Cells(opt Options) []fig3Cell {
	var cells []fig3Cell
	for _, n := range Fig3Concurrency {
		for _, seed := range opt.Seeds {
			cells = append(cells, fig3Cell{n, seed})
		}
	}
	return cells
}

func fig3Campaign() *campaign {
	return newCampaign("fig3", "fig3.csv", fig3Cells,
		func(c fig3Cell) string { return fmt.Sprintf("n%d/seed%d", c.dagmans, c.seed) },
		func(opt Options, _ *campaignCtx, c fig3Cell) (fig3Result, sim.Time, error) {
			env, err := core.NewEnvObs(c.seed, opt.Pool, opt.Obs)
			if err != nil {
				return fig3Result{}, 0, err
			}
			wfs, err := simulate(opt, env, nil, concurrentConfigs("fig3", c.dagmans, opt.scaleN(Fig3Total), c.seed)...)
			if err != nil {
				return fig3Result{}, 0, err
			}
			var res fig3Result
			for _, wf := range wfs {
				res.RuntimeHs = append(res.RuntimeHs, wf.RuntimeHours())
				res.JPMs = append(res.JPMs, wf.ThroughputJPM())
			}
			res.MakespanH = float64(env.Kernel.Now()) / 3600
			return res, env.Kernel.Now(), nil
		},
		func(opt Options, results []fig3Result) (any, error) {
			w := opt.out()
			total := opt.scaleN(Fig3Total)
			fmt.Fprintf(w, "Fig. 3 — concurrent HTCondor DAGMans jointly making %d waveforms (%d reps)\n", total, len(opt.Seeds))
			fmt.Fprintf(w, "%7s %9s | %21s | %12s | %10s\n", "dagmans", "wf each", "avg runtime h (sd)", "avg JPM", "makespan h")
			reps := len(opt.Seeds)
			var rows []Fig3Row
			for li, n := range Fig3Concurrency {
				each := total / n
				var rts, jpms, makespans []float64
				for _, res := range results[li*reps : (li+1)*reps] {
					rts = append(rts, res.RuntimeHs...)
					jpms = append(jpms, res.JPMs...)
					makespans = append(makespans, res.MakespanH)
				}
				row := Fig3Row{
					DAGMans:       n,
					WaveformsEach: each,
					RuntimeH:      stats.AvgRuntimeAcrossDAGMans(rts),
					RuntimeSD:     stats.SD(rts),
					RuntimeMin:    stats.Min(rts),
					RuntimeMax:    stats.Max(rts),
					ThroughputJPM: stats.Mean(jpms),
					MakespanH:     stats.Mean(makespans),
				}
				rows = append(rows, row)
				fmt.Fprintf(w, "%7d %9d | %10.2f (%6.2f) | %12.2f | %10.2f\n",
					row.DAGMans, row.WaveformsEach, row.RuntimeH, row.RuntimeSD,
					row.ThroughputJPM, row.MakespanH)
			}
			return rows, nil
		},
		func(w io.Writer, rows any) error { return WriteFig3CSV(w, rows.([]Fig3Row)) })
}

// ------------------------------------------------------------- fig5/6

// fig5Spec is one (batch, policy) cell of the bursting sweep.
type fig5Spec struct {
	bi            int
	probe, queueM float64
	control       bool
}

// fig5Specs enumerates every (batch, policy) cell in print order: the
// pure-OSG control first for each of MakeBatchTraces' two batches,
// then queue × probe.
func fig5Specs(Options) []fig5Spec {
	var specs []fig5Spec
	for bi := 0; bi < 2; bi++ {
		specs = append(specs, fig5Spec{bi: bi, control: true})
		for _, queueM := range Fig5QueueTimesMin {
			for _, probe := range Fig5ProbeTimes {
				specs = append(specs, fig5Spec{bi: bi, probe: probe, queueM: queueM})
			}
		}
	}
	return specs
}

// printFig5Cells renders the sweep report for the campaign finalizer.
func printFig5Cells(w io.Writer, label string, maxBurstFraction float64, cells []Fig5Cell) {
	fmt.Fprintf(w, "%s — VDC bursting sweep (threshold %d JPM, probes %v s, queue caps %v min, burst cap %.0f%%)\n",
		label, Fig5Threshold, Fig5ProbeTimes, Fig5QueueTimesMin, maxBurstFraction*100)
	fmt.Fprintf(w, "%8s %7s %7s | %8s %8s %8s | %7s %9s %9s\n",
		"batch", "probe s", "queue m", "AIT jpm", "max jpm", "VDC %", "burst %", "runtime h", "cost $")
	for _, cell := range cells {
		if cell.Control {
			fmt.Fprintf(w, "%8s %7s %7s | %8.2f %8.2f %8.1f | %7.1f %9.2f %9.2f\n",
				cell.Batch, "ctl", "-", cell.AvgJPM, cell.MaxJPM, cell.VDCPct, cell.BurstedPct, cell.RuntimeH, cell.CostUSD)
			continue
		}
		fmt.Fprintf(w, "%8s %7.0f %7.0f | %8.2f %8.2f %8.1f | %7.1f %9.2f %9.2f\n",
			cell.Batch, cell.ProbeSecs, cell.MaxQueueM, cell.AvgJPM, cell.MaxJPM, cell.VDCPct,
			cell.BurstedPct, cell.RuntimeH, cell.CostUSD)
	}
}

// fig5Campaign builds the bursting-sweep campaign for the given cap:
// Fig. 5 runs uncapped, Fig. 6 with the paper's 30% bursted-job cap.
func fig5Campaign(name string, maxBurstFraction float64, label string) *campaign {
	return newCampaign(name, name+".csv", fig5Specs,
		func(s fig5Spec) string {
			if s.control {
				return fmt.Sprintf("b%d/ctl", s.bi+1)
			}
			return fmt.Sprintf("b%d/q%.0f/p%.0f", s.bi+1, s.queueM, s.probe)
		},
		func(opt Options, ctx *campaignCtx, s fig5Spec) (Fig5Cell, sim.Time, error) {
			cfg := burst.DefaultConfig()
			cfg.MaxBurstFraction = maxBurstFraction
			if !s.control {
				cfg.P1 = &burst.Policy1{ProbeSecs: s.probe, ThresholdJPM: Fig5Threshold}
				cfg.P2 = &burst.Policy2{MaxQueueSecs: s.queueM * 60}
			}
			batch, res, err := replay(opt, ctx, s.bi, cfg)
			if err != nil {
				return Fig5Cell{}, 0, err
			}
			return Fig5Cell{
				Batch:      batch,
				ProbeSecs:  s.probe,
				MaxQueueM:  s.queueM,
				Control:    s.control,
				AvgJPM:     res.AvgInstantJPM,
				MaxJPM:     res.MaxInstantJPM,
				SDJPM:      res.SDInstantJPM,
				VDCPct:     res.VDCUsagePct,
				BurstedPct: res.BurstedPct,
				RuntimeH:   res.RuntimeSecs / 3600,
				CostUSD:    res.CostUSD,
			}, sim.Time(res.RuntimeSecs), nil
		},
		func(opt Options, cells []Fig5Cell) (any, error) {
			printFig5Cells(opt.out(), label, maxBurstFraction, cells)
			return cells, nil
		},
		func(w io.Writer, rows any) error { return WriteFig5CSV(w, rows.([]Fig5Cell)) })
}

// ---------------------------------------------------------------- chaos

type chaosCell struct {
	plan faults.Plan
	seed uint64
	rec  bool
}

// chaosCells flattens the A/B matrix in grid order: plan outer, seed
// inner, recovery-off before recovery-on.
func chaosCells(opt Options) []chaosCell {
	var cells []chaosCell
	for _, plan := range faults.StandardPlans() {
		for _, seed := range opt.Seeds {
			for _, rec := range []bool{false, true} {
				cells = append(cells, chaosCell{plan, seed, rec})
			}
		}
	}
	return cells
}

func chaosCampaign() *campaign {
	return newCampaign("chaos", "chaos.csv", chaosCells,
		func(c chaosCell) string {
			arm := "off"
			if c.rec {
				arm = "on"
			}
			return fmt.Sprintf("%s/seed%d/%s", c.plan.Name, c.seed, arm)
		},
		func(opt Options, _ *campaignCtx, c chaosCell) (ChaosRow, sim.Time, error) {
			return chaosOne(opt, c.plan, c.seed, c.rec)
		},
		func(opt Options, rows []ChaosRow) (any, error) {
			printChaosReport(opt, rows)
			return rows, nil
		},
		func(w io.Writer, rows any) error { return WriteChaosCSV(w, rows.([]ChaosRow)) })
}
