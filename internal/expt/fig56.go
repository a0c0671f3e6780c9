package expt

import (
	"fmt"

	"fdw/internal/burst"
	"fdw/internal/par"
	"fdw/internal/wtrace"
)

// Fig5Cell is one parameter combination of the §4.3 bursting sweep.
// Fig. 5 cells run uncapped (the sweep explores how far each policy
// pushes VDC usage); Fig. 6 cells rerun the sweep with the paper's
// 30% bursted-job cap for the cost/runtime comparison.
type Fig5Cell struct {
	Batch      string
	ProbeSecs  float64
	MaxQueueM  float64
	Control    bool
	AvgJPM     float64 // average instant throughput, formula (6)
	MaxJPM     float64
	SDJPM      float64
	VDCPct     float64 // VDC usage: % of completions on VDC (§5.3.2)
	BurstedPct float64
	RuntimeH   float64
	CostUSD    float64 // formula (7)
}

// Fig5ProbeTimes are the paper's Policy 1 probe intervals (seconds).
var Fig5ProbeTimes = []float64{1, 2, 5, 10, 30, 60, 120}

// Fig5QueueTimesMin are the Policy 2 maximum queue times (minutes).
var Fig5QueueTimesMin = []float64{90, 120}

// Fig5Threshold is the Policy 1 instant-throughput threshold (JPM).
const Fig5Threshold = 34

// makeBatchTraces produces the bursting experiments' input: job-time
// traces of two real single-DAGMan batches that each generated 16,000
// (scaled) waveforms, exactly the §4.2 runs the paper reuses in §4.3.
// Batch i+1 is seeded opt.Seeds[0]+101·i; the two run side by side on
// opt.Workers.
func makeBatchTraces(opt Options) (batches []wtrace.BatchRecord, jobs [][]wtrace.JobRecord, err error) {
	batches = make([]wtrace.BatchRecord, 2)
	jobs = make([][]wtrace.JobRecord, 2)
	err = par.Each(opt.Workers, 2, func() func(int) error {
		return func(i int) error {
			seed := opt.Seeds[0] + uint64(101*i)
			name := fmt.Sprintf("batch%d", i+1)
			wf, _, err := runOne(opt, workflowConfig(name, opt.scaleN(Fig3Total), seed), seed)
			if err == nil {
				batches[i], jobs[i], err = wtrace.FromSchedd(name, wf.Schedd)
			}
			if err != nil {
				return fmt.Errorf("expt: traces cell %s: %w", name, err)
			}
			return nil
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return batches, jobs, nil
}

// replay runs a bursting policy over the shared batch trace bi and
// names the batch: every Fig. 5/6, Policy 3 and elastic cell.
func replay(opt Options, ctx *campaignCtx, bi int, cfg burst.Config) (string, *burst.Result, error) {
	traces, err := ctx.traces(opt)
	if err != nil {
		return "", nil, err
	}
	cfg.Obs = opt.Obs
	res, err := traces[bi].Simulate(cfg)
	if err != nil {
		return "", nil, err
	}
	return res.Batch, res, nil
}
