package expt

import (
	"fmt"

	"fdw/internal/burst"
	"fdw/internal/core"
	"fdw/internal/ospool"
	"fdw/internal/sim"
	"fdw/internal/stash"
)

// The ablations quantify the design choices DESIGN.md §6 calls out:
// matrix recycling, the Stash cache, the per-job fan-out and pilot
// churn; Policy 3 and elastic extend the bursting study. Each campaign
// returns paper-style rows and prints them to opt.Out.

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Label         string
	RuntimeH      float64
	ThroughputJPM float64
	Jobs          int
}

// ablationRow summarizes a finished workflow under label.
func ablationRow(label string, wf *core.Workflow) AblationRow {
	return AblationRow{Label: label, RuntimeH: wf.RuntimeHours(), ThroughputJPM: wf.ThroughputJPM(), Jobs: wf.Schedd.Completed()}
}

// ablationVariant is one arm of a two-way ablation: id, label, switch.
type ablationVariant struct {
	id, label string
	on        bool
}

func variantID(v ablationVariant) string { return v.id }

// ablateRecyclingCampaign measures FDW with and without the recyclable
// .npy distance matrices (the paper: generating them is time-consuming,
// so "recycling them is crucial").
func ablateRecyclingCampaign() *campaign {
	return newCampaign("ablate-recycling",
		func(Options) []ablationVariant {
			return []ablationVariant{{"recycled", "recycled .npy", true}, {"regenerated", "regenerate .npy", false}}
		}, variantID,
		func(opt Options, _ *campaignCtx, v ablationVariant) (AblationRow, sim.Time, error) {
			// DefaultConfig's seed (1), not opt.Seeds[0], as pinned.
			cfg := core.DefaultConfig()
			cfg.Waveforms = opt.scaleN(1024)
			cfg.RecycleMatrices = v.on
			cfg.Name = fmt.Sprintf("ablate-recycle-%t", v.on)
			wf, end, err := runOne(opt, cfg, opt.Seeds[0])
			if err != nil {
				return AblationRow{}, 0, err
			}
			return ablationRow(v.label, wf), end, nil
		},
		func(opt Options, rows []AblationRow) ([]AblationRow, error) {
			w := opt.out()
			fmt.Fprintf(w, "Ablation — matrix recycling (%d waveforms, full input)\n", opt.scaleN(1024))
			for _, r := range rows {
				fmt.Fprintf(w, "  %-16s runtime %6.2f h, %6.2f JPM, %d jobs\n", r.Label, r.RuntimeH, r.ThroughputJPM, r.Jobs)
			}
			return rows, nil
		}, nil)
}

// ablateStashCampaign measures FDW with the Stash cache versus all-cold
// transfers (every job pays origin bandwidth for the >1 GB inputs).
func ablateStashCampaign() *campaign {
	return newCampaign("ablate-stash",
		func(Options) []ablationVariant {
			return []ablationVariant{{"cache", "stash cache", true}, {"no-cache", "no cache (all cold)", false}}
		}, variantID,
		func(opt Options, _ *campaignCtx, v ablationVariant) (AblationRow, sim.Time, error) {
			cfg := stash.DefaultConfig()
			if !v.on {
				// No regional caches: every transfer rides origin bandwidth.
				cfg.CacheBps = cfg.OriginBps
			}
			env, err := core.NewEnvStash(opt.Seeds[0], opt.Pool, cfg, opt.Obs)
			if err != nil {
				return AblationRow{}, 0, err
			}
			wfs, err := simulate(opt, env, nil, workflowConfig("ablate-stash", opt.scaleN(2000), opt.Seeds[0]))
			if err != nil {
				return AblationRow{}, 0, err
			}
			return ablationRow(v.label, wfs[0]), env.Kernel.Now(), nil
		},
		func(opt Options, rows []AblationRow) ([]AblationRow, error) {
			w := opt.out()
			fmt.Fprintf(w, "Ablation — Stash cache (%d waveforms, full input)\n", opt.scaleN(2000))
			for _, r := range rows {
				fmt.Fprintf(w, "  %-20s runtime %6.2f h, %6.2f JPM\n", r.Label, r.RuntimeH, r.ThroughputJPM)
			}
			return rows, nil
		}, nil)
}

// ablateFanoutCampaign sweeps the phase C fan-out (waveforms per OSG
// job): finer fan-out exposes more parallelism but multiplies
// scheduling and transfer overhead — the trade that fixed the paper's
// 2-per-job choice.
func ablateFanoutCampaign() *campaign {
	return newCampaign("ablate-fanout",
		func(Options) []int { return []int{1, 2, 8, 32} },
		func(perJob int) string { return fmt.Sprintf("%d-per-job", perJob) },
		func(opt Options, _ *campaignCtx, perJob int) (AblationRow, sim.Time, error) {
			// DefaultConfig's seed (1), not opt.Seeds[0], as pinned.
			cfg := core.DefaultConfig()
			cfg.Waveforms = opt.scaleN(4096)
			cfg.WaveformsPerJob = perJob
			cfg.Name = fmt.Sprintf("ablate-fanout-%d", perJob)
			wf, end, err := runOne(opt, cfg, opt.Seeds[0])
			if err != nil {
				return AblationRow{}, 0, err
			}
			return ablationRow(fmt.Sprintf("%d wf/job", perJob), wf), end, nil
		},
		func(opt Options, rows []AblationRow) ([]AblationRow, error) {
			w := opt.out()
			fmt.Fprintf(w, "Ablation — waveforms per job (%d waveforms, full input)\n", opt.scaleN(4096))
			for _, r := range rows {
				fmt.Fprintf(w, "  %-10s runtime %6.2f h, %6.2f JPM, %d jobs\n", r.Label, r.RuntimeH, r.ThroughputJPM, r.Jobs)
			}
			return rows, nil
		}, nil)
}

// Policy3Row is one point of the submission-gap sweep.
type Policy3Row struct {
	Batch      string
	MaxGapMin  float64
	AvgJPM     float64
	BurstedPct float64
	CostUSD    float64
}

// policy3Cell is one (batch trace, maximum gap) point of the sweep.
type policy3Cell struct {
	bi     int
	gapMin float64
}

// policy3Campaign explores Policy 3 (submission gaps), which the paper
// defines but does not sweep: maximum allowed gaps of 5–60 minutes on
// the two §4.3 batch traces.
func policy3Campaign() *campaign {
	return newCampaign("policy3",
		func(Options) []policy3Cell {
			var cells []policy3Cell
			for bi := 0; bi < 2; bi++ {
				for _, gapMin := range []float64{5, 15, 30, 60} {
					cells = append(cells, policy3Cell{bi, gapMin})
				}
			}
			return cells
		},
		func(c policy3Cell) string { return fmt.Sprintf("b%d/gap%.0f", c.bi+1, c.gapMin) },
		func(opt Options, ctx *campaignCtx, c policy3Cell) (Policy3Row, sim.Time, error) {
			cfg := burst.DefaultConfig()
			cfg.P3 = &burst.Policy3{MaxGapSecs: c.gapMin * 60, ProbeSecs: 30}
			batch, res, err := replay(opt, ctx, c.bi, cfg)
			if err != nil {
				return Policy3Row{}, 0, err
			}
			return Policy3Row{
				Batch:      batch,
				MaxGapMin:  c.gapMin,
				AvgJPM:     res.AvgInstantJPM,
				BurstedPct: res.BurstedPct,
				CostUSD:    res.CostUSD,
			}, sim.Time(res.RuntimeSecs), nil
		},
		func(opt Options, rows []Policy3Row) ([]Policy3Row, error) {
			w := opt.out()
			fmt.Fprintf(w, "Policy 3 sweep — burst on submission gaps\n")
			fmt.Fprintf(w, "%8s %8s | %8s %8s %8s\n", "batch", "gap min", "AIT jpm", "burst %", "cost $")
			for _, row := range rows {
				fmt.Fprintf(w, "%8s %8.0f | %8.2f %8.1f %8.2f\n",
					row.Batch, row.MaxGapMin, row.AvgJPM, row.BurstedPct, row.CostUSD)
			}
			return rows, nil
		}, nil)
}

// ElasticRow compares the future-work elastic policy with Policy 1.
type ElasticRow struct {
	Batch      string
	Policy     string
	AvgJPM     float64
	BurstedPct float64
	CostUSD    float64
	RuntimeH   float64
}

// elasticCell is one (batch trace, policy) point of the comparison.
type elasticCell struct {
	bi     int
	policy string
}

// elasticCampaign runs the paper's future-work elastic algorithm
// against Policy 1 at the same probing cadence and target.
func elasticCampaign() *campaign {
	return newCampaign("elastic",
		func(Options) []elasticCell {
			return []elasticCell{{0, "policy-1"}, {0, "elastic"}, {1, "policy-1"}, {1, "elastic"}}
		},
		func(c elasticCell) string { return fmt.Sprintf("b%d/%s", c.bi+1, c.policy) },
		func(opt Options, ctx *campaignCtx, c elasticCell) (ElasticRow, sim.Time, error) {
			cfg := burst.DefaultConfig()
			if c.policy == "elastic" {
				cfg.Elastic = &burst.ElasticPolicy{TargetJPM: Fig5Threshold, ProbeSecs: 30, MaxPerProbe: 8}
			} else {
				cfg.P1 = &burst.Policy1{ProbeSecs: 30, ThresholdJPM: Fig5Threshold}
			}
			batch, res, err := replay(opt, ctx, c.bi, cfg)
			if err != nil {
				return ElasticRow{}, 0, err
			}
			return ElasticRow{
				Batch:      batch,
				Policy:     c.policy,
				AvgJPM:     res.AvgInstantJPM,
				BurstedPct: res.BurstedPct,
				CostUSD:    res.CostUSD,
				RuntimeH:   res.RuntimeSecs / 3600,
			}, sim.Time(res.RuntimeSecs), nil
		},
		func(opt Options, rows []ElasticRow) ([]ElasticRow, error) {
			w := opt.out()
			fmt.Fprintf(w, "Elastic bursting (future work §6) vs Policy 1 (target %d JPM)\n", Fig5Threshold)
			fmt.Fprintf(w, "%8s %-10s | %8s %8s %9s %9s\n", "batch", "policy", "AIT jpm", "burst %", "cost $", "runtime h")
			for _, row := range rows {
				fmt.Fprintf(w, "%8s %-10s | %8.2f %8.1f %9.2f %9.2f\n",
					row.Batch, row.Policy, row.AvgJPM, row.BurstedPct, row.CostUSD, row.RuntimeH)
			}
			return rows, nil
		}, nil)
}

// churnResult is a churn cell's row plus the pool's eviction count.
type churnResult struct {
	Row     AblationRow
	Evicted int
}

// ablateChurnCampaign measures FDW under aggressive pilot churn (mean
// glidein lifetime cut from 6 h to 45 min): evictions spike but the
// requeue machinery keeps the workflow correct, at a bounded runtime
// cost — the robustness argument for running FakeQuakes on
// opportunistic OSG resources at all.
func ablateChurnCampaign() *campaign {
	return newCampaign("ablate-churn",
		func(Options) []ablationVariant {
			return []ablationVariant{{"6h-pilots", "6h pilots", false}, {"45min-pilots", "45min pilots", true}}
		}, variantID,
		func(opt Options, _ *campaignCtx, v ablationVariant) (churnResult, sim.Time, error) {
			pool := opt.Pool
			pool.Sites = append([]ospool.SiteConfig(nil), opt.Pool.Sites...)
			if v.on {
				pool.GlideinLifetimeMean = 45 * 60
			}
			env, err := core.NewEnvObs(opt.Seeds[0], pool, opt.Obs)
			if err != nil {
				return churnResult{}, 0, err
			}
			wfs, err := simulate(opt, env, nil, workflowConfig("ablate-churn", opt.scaleN(2000), opt.Seeds[0]))
			if err != nil {
				return churnResult{}, 0, err
			}
			_, _, evictions := env.Pool.Stats()
			return churnResult{ablationRow(v.label, wfs[0]), evictions}, env.Kernel.Now(), nil
		},
		func(opt Options, results []churnResult) ([]AblationRow, error) {
			w := opt.out()
			fmt.Fprintf(w, "Ablation — glidein churn (%d waveforms, full input)\n", opt.scaleN(2000))
			rows := make([]AblationRow, len(results))
			for i, r := range results {
				rows[i] = r.Row
				fmt.Fprintf(w, "  %-14s runtime %6.2f h, %6.2f JPM, %d evictions\n",
					r.Row.Label, r.Row.RuntimeH, r.Row.ThroughputJPM, r.Evicted)
			}
			return rows, nil
		}, nil)
}
