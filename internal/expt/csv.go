package expt

import (
	"encoding/csv"
	"io"
	"strconv"
)

// CSV writers for the figure data, so the rows the harness prints can
// be re-plotted outside Go. One writer per figure's row type.

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
func d(v int) string     { return strconv.Itoa(v) }

// WriteFig2CSV writes the Fig. 2 rows.
func WriteFig2CSV(w io.Writer, rows []Fig2Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			d(r.Stations), d(r.Waveforms), d(r.Jobs),
			f(r.RuntimeH), f(r.RuntimeSD), f(r.RuntimeMin), f(r.RuntimeMax),
			f(r.ThroughputJPM), f(r.ThroughputSD),
		}
	}
	return writeCSV(w, []string{
		"stations", "waveforms", "jobs",
		"runtime_h", "runtime_sd", "runtime_min", "runtime_max",
		"jpm", "jpm_sd",
	}, out)
}

// WriteFig3CSV writes the Fig. 3 rows.
func WriteFig3CSV(w io.Writer, rows []Fig3Row) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			d(r.DAGMans), d(r.WaveformsEach),
			f(r.RuntimeH), f(r.RuntimeSD), f(r.RuntimeMin), f(r.RuntimeMax),
			f(r.ThroughputJPM), f(r.MakespanH),
		}
	}
	return writeCSV(w, []string{
		"dagmans", "waveforms_each",
		"runtime_h", "runtime_sd", "runtime_min", "runtime_max",
		"jpm", "makespan_h",
	}, out)
}

// WriteFig4SeriesCSV writes one concurrency level's per-second series:
// instant throughput and running jobs side by side.
func WriteFig4SeriesCSV(w io.Writer, data Fig4Data) error {
	n := len(data.InstantJPM)
	if len(data.RunningJobs) < n {
		n = len(data.RunningJobs)
	}
	out := make([][]string, n)
	for i := 0; i < n; i++ {
		out[i] = []string{
			f(float64(data.InstantJPM[i].T)),
			f(data.InstantJPM[i].V),
			f(data.RunningJobs[i].V),
		}
	}
	return writeCSV(w, []string{"second", "instant_jpm", "running_jobs"}, out)
}

// WriteFig5CSV writes the bursting sweep cells (Fig. 5 or Fig. 6).
func WriteFig5CSV(w io.Writer, cells []Fig5Cell) error {
	out := make([][]string, len(cells))
	for i, c := range cells {
		control := "0"
		if c.Control {
			control = "1"
		}
		out[i] = []string{
			c.Batch, control, f(c.ProbeSecs), f(c.MaxQueueM),
			f(c.AvgJPM), f(c.MaxJPM), f(c.SDJPM),
			f(c.VDCPct), f(c.BurstedPct), f(c.RuntimeH), f(c.CostUSD),
		}
	}
	return writeCSV(w, []string{
		"batch", "control", "probe_s", "max_queue_min",
		"ait_jpm", "max_jpm", "sd_jpm",
		"vdc_pct", "bursted_pct", "runtime_h", "cost_usd",
	}, out)
}
