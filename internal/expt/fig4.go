package expt

import (
	"fmt"
	"io"
	"sort"

	"fdw/internal/core"
	"fdw/internal/htcondor"
	"fdw/internal/sim"
	"fdw/internal/stats"
)

// Fig4Data holds one concurrency level's per-job and per-second views
// (§5.2.3/§5.2.4): execution and wait time distributions, instant
// throughput, and the running-job footprint of the first DAGMan.
type Fig4Data struct {
	DAGMans int

	// Per-job distributions (minutes), across all DAGMans in the batch.
	WaveformExecMin stats.Summary
	WaveformWaitMin stats.Summary
	RuptureExecMin  stats.Summary
	RuptureWaitMin  stats.Summary

	// Sorted per-job series for the Fig. 4 duration plots.
	ExecSortedMin []float64
	WaitSortedMin []float64

	// Per-second series for the first DAGMan.
	InstantJPM  []core.SeriesPoint
	RunningJobs []core.SeriesPoint

	PeakRunning    int
	PeakInstantJPM float64
}

// fig4Campaign reruns the §5.2.3/§5.2.4 measurements for each
// concurrency level, reusing the Fig. 3 batch construction with
// per-second probes. One cell per level; finalize prints them in
// ladder order, and each level writes its per-second series CSV.
func fig4Campaign() *campaign {
	return newCampaign("fig4", func(Options) []int { return Fig3Concurrency },
		func(n int) string { return fmt.Sprintf("n%d", n) },
		func(opt Options, _ *campaignCtx, n int) (Fig4Data, sim.Time, error) {
			seed := opt.Seeds[0]
			env, err := core.NewEnvObs(seed, opt.Pool, opt.Obs)
			if err != nil {
				return Fig4Data{}, 0, err
			}
			// The per-second series need the first DAGMan's events at
			// their exact sim times; the user-log text rounds them to
			// whole seconds.
			var events []htcondor.JobEvent
			listen := func(wfs []*core.Workflow) error {
				wfs[0].Schedd.Subscribe(func(j *htcondor.Job, t htcondor.EventType) {
					events = append(events, htcondor.JobEvent{Type: t, Cluster: j.Cluster, Proc: j.Proc, At: env.Kernel.Now()})
				})
				return nil
			}
			wfs, err := simulate(opt, env, listen, concurrentConfigs("fig4", n, opt.scaleN(Fig3Total), seed)...)
			if err != nil {
				return Fig4Data{}, 0, err
			}

			data := Fig4Data{DAGMans: n}
			var wExec, wWait, rExec, rWait []float64
			for _, wf := range wfs {
				for _, j := range wf.Schedd.AllJobs() {
					if j.ExecSeconds() <= 0 {
						continue
					}
					execMin := j.ExecSeconds() / 60
					waitMin := j.WaitSeconds() / 60
					switch {
					case j.Executable == "fdw_phase_C.sh":
						wExec = append(wExec, execMin)
						wWait = append(wWait, waitMin)
					case j.Executable == "fdw_phase_A.sh":
						rExec = append(rExec, execMin)
						rWait = append(rWait, waitMin)
					}
					data.ExecSortedMin = append(data.ExecSortedMin, execMin)
					data.WaitSortedMin = append(data.WaitSortedMin, waitMin)
				}
			}
			sort.Float64s(data.ExecSortedMin)
			sort.Float64s(data.WaitSortedMin)
			data.WaveformExecMin = stats.Summarize(wExec)
			data.WaveformWaitMin = stats.Summarize(wWait)
			data.RuptureExecMin = stats.Summarize(rExec)
			data.RuptureWaitMin = stats.Summarize(rWait)

			data.InstantJPM = core.InstantThroughputSeries(events, 1)
			data.RunningJobs = core.RunningJobsSeries(events, 1)
			for _, p := range data.InstantJPM {
				if p.V > data.PeakInstantJPM {
					data.PeakInstantJPM = p.V
				}
			}
			for _, p := range data.RunningJobs {
				if int(p.V) > data.PeakRunning {
					data.PeakRunning = int(p.V)
				}
			}
			return data, env.Kernel.Now(), nil
		},
		func(opt Options, out []Fig4Data) ([]Fig4Data, error) {
			w := opt.out()
			fmt.Fprintf(w, "Fig. 4 — job execution/wait times and per-second footprints (%d waveforms)\n", opt.scaleN(Fig3Total))
			for _, data := range out {
				fmt.Fprintf(w, "  n=%d: waveform exec %.1f min (sd %.1f), wait %.1f min (sd %.1f); rupture exec %.1f min; peak running %d; peak instant %.1f JPM\n",
					data.DAGMans, data.WaveformExecMin.Mean, data.WaveformExecMin.SD,
					data.WaveformWaitMin.Mean, data.WaveformWaitMin.SD,
					data.RuptureExecMin.Mean, data.PeakRunning, data.PeakInstantJPM)
			}
			return out, nil
		},
		func(out []Fig4Data) []CSV {
			csvs := make([]CSV, len(out))
			for i, data := range out {
				csvs[i] = CSV{Name: fmt.Sprintf("fig4_n%d.csv", data.DAGMans),
					Write: func(w io.Writer) error { return writeFig4SeriesCSV(w, data) }}
			}
			return csvs
		})
}
