package expt

import (
	"fmt"

	"fdw/internal/baseline"
	"fdw/internal/core"
	"fdw/internal/sim"
	"fdw/internal/stats"
)

// HeadlineResult is the §6 comparison: FDW versus an automated
// single-machine FakeQuakes run for 1,024 full-input waveforms, plus
// the abstract's throughput multiple between 1,024 and 50,000.
type HeadlineResult struct {
	Waveforms      int
	FDWHours       float64
	BaselineHours  float64
	DecreasePct    float64 // the paper reports 56.8%
	JPMAt1024      float64
	JPMAt50000     float64
	ThroughputGain float64 // the paper reports ≈5×
}

// headlineCell is one headline run: a paper quantity under one seed.
type headlineCell struct {
	quantity int
	seed     uint64
}

// headlineCampaign reruns the headline measurements: one cell per
// quantity and seed, averaged in seed order as a serial run would.
func headlineCampaign() *campaign {
	return newCampaign("headline",
		func(opt Options) []headlineCell {
			var cells []headlineCell
			for _, q := range []int{1024, 50000} {
				for _, seed := range opt.Seeds {
					cells = append(cells, headlineCell{q, seed})
				}
			}
			return cells
		},
		func(c headlineCell) string { return fmt.Sprintf("q%d/seed%d", c.quantity, c.seed) },
		func(opt Options, _ *campaignCtx, c headlineCell) (runResult, sim.Time, error) {
			n := opt.scaleN(c.quantity)
			return measureOne(opt, workflowConfig(fmt.Sprintf("headline-%d", n), n, c.seed), c.seed)
		},
		func(opt Options, results []runResult) (*HeadlineResult, error) {
			reps := len(opt.Seeds)
			mean := func(qi int, field func(runResult) float64) float64 {
				vals := make([]float64, reps)
				for r := 0; r < reps; r++ {
					vals[r] = field(results[qi*reps+r])
				}
				return stats.Mean(vals)
			}
			fdwH := mean(0, func(r runResult) float64 { return r.RuntimeH })
			jpmSmall := mean(0, func(r runResult) float64 { return r.JPM })
			jpmBig := mean(1, func(r runResult) float64 { return r.JPM })

			n1024 := opt.scaleN(1024)
			cfg := core.DefaultConfig()
			cfg.Waveforms = n1024
			bl, err := baseline.Run(baseline.AWSInstance(), cfg)
			if err != nil {
				return nil, err
			}

			res := &HeadlineResult{
				Waveforms:     n1024,
				FDWHours:      fdwH,
				BaselineHours: bl.TotalHours(),
				DecreasePct:   stats.PctDecrease(bl.TotalHours(), fdwH),
				JPMAt1024:     jpmSmall,
				JPMAt50000:    jpmBig,
			}
			if jpmSmall > 0 {
				res.ThroughputGain = jpmBig / jpmSmall
			}
			w := opt.out()
			fmt.Fprintf(w, "Headline — %d full-input waveforms: FDW %.2f h vs single machine %.2f h → %.1f%% decrease (paper: 56.8%%)\n",
				res.Waveforms, res.FDWHours, res.BaselineHours, res.DecreasePct)
			fmt.Fprintf(w, "Throughput gain %d→%d waveforms: %.2f× (paper: ≈5×)\n",
				n1024, opt.scaleN(50000), res.ThroughputGain)
			return res, nil
		}, nil)
}
