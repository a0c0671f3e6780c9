package expt

import (
	"fmt"

	"fdw/internal/burst"
	"fdw/internal/sim"
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
func makeBatchTraces(opt Options) (batches []wtrace.BatchRecord, jobs [][]wtrace.JobRecord, err error) {
	res, err := runCampaign(tracesCampaign(), opt)
	if err != nil {
		return nil, nil, err
	}
	traces := res.Rows.([]batchTrace)
	batches = make([]wtrace.BatchRecord, len(traces))
	jobs = make([][]wtrace.JobRecord, len(traces))
	for i, t := range traces {
		batches[i], jobs[i] = t.Batch, t.Jobs
	}
	return batches, jobs, nil
}

// batchTrace is one traced batch: its summary and per-job records.
type batchTrace struct {
	Batch wtrace.BatchRecord
	Jobs  []wtrace.JobRecord
}

// tracesCampaign has one cell per traced batch, seeded opt.Seeds[0]
// and opt.Seeds[0]+101. It is an input builder, not a registered
// experiment.
func tracesCampaign() *campaign {
	return newCampaign("traces", func(Options) []int { return []int{1, 2} },
		func(i int) string { return fmt.Sprintf("batch%d", i) },
		func(opt Options, _ *campaignCtx, i int) (batchTrace, sim.Time, error) {
			seed := opt.Seeds[0] + uint64(101*(i-1))
			name := fmt.Sprintf("batch%d", i)
			wf, end, err := runOne(opt, workflowConfig(name, opt.scaleN(Fig3Total), seed), seed)
			if err != nil {
				return batchTrace{}, 0, err
			}
			batch, jobs, err := wtrace.FromSchedd(name, wf.Schedd)
			return batchTrace{batch, jobs}, end, err
		},
		func(_ Options, traces []batchTrace) ([]batchTrace, error) { return traces, nil }, nil)
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
