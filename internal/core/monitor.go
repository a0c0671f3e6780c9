package core

import (
	"fmt"
	"io"
	"sort"

	"fdw/internal/htcondor"
	"fdw/internal/sim"
	"fdw/internal/stats"
)

// BatchStats is FDW's per-DAGMan monitoring summary, computed from the
// HTCondor user log exactly as the paper's shell scripts do: runtime,
// job counts, execution/wait-time distributions, total throughput.
type BatchStats struct {
	Name string

	SubmitStart sim.Time // first 000 event
	End         sim.Time // last 005/009 event
	RuntimeSecs float64

	TotalJobs     int
	CompletedJobs int
	AbortedJobs   int
	Evictions     int

	ExecMinutes stats.Summary // per-job execution times (minutes)
	WaitMinutes stats.Summary // per-job queue waits (minutes)

	ThroughputJPM float64 // total throughput, jobs/minute
}

// AnalyzeEvents reduces a user-log event stream into BatchStats.
func AnalyzeEvents(name string, events []htcondor.JobEvent) (*BatchStats, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("core: no events for batch %q", name)
	}
	rows := htcondor.ReduceJobTimes(events)
	b := &BatchStats{Name: name, SubmitStart: sim.Forever}
	var execs, waits []float64
	for _, r := range rows {
		b.TotalJobs++
		if r.Submit < b.SubmitStart {
			b.SubmitStart = r.Submit
		}
		if r.End > b.End {
			b.End = r.End
		}
		b.Evictions += r.Evictions
		switch {
		case r.Aborted:
			b.AbortedJobs++
		case r.HasEnd:
			b.CompletedJobs++
			execs = append(execs, r.ExecSecs/60)
			waits = append(waits, r.WaitSecs/60)
		}
	}
	if b.End < b.SubmitStart {
		return nil, fmt.Errorf("core: batch %q has no completion events", name)
	}
	b.RuntimeSecs = float64(b.End - b.SubmitStart)
	b.ExecMinutes = stats.Summarize(execs)
	b.WaitMinutes = stats.Summarize(waits)
	if b.RuntimeSecs > 0 {
		b.ThroughputJPM = float64(b.CompletedJobs) / (b.RuntimeSecs / 60)
	}
	return b, nil
}

// SeriesPoint is one sample of a time series.
type SeriesPoint struct {
	T sim.Time // seconds since batch submit
	V float64
}

// InstantThroughputSeries computes formula (5) — completed jobs divided
// by elapsed minutes — at each step (seconds) through the batch.
func InstantThroughputSeries(events []htcondor.JobEvent, step sim.Time) []SeriesPoint {
	if step <= 0 {
		step = 1
	}
	start, end, completions := completionTimes(events)
	if end < start {
		return nil
	}
	var out []SeriesPoint
	ci := 0
	done := 0
	for t := start; t <= end; t += step {
		for ci < len(completions) && completions[ci] <= t {
			done++
			ci++
		}
		elapsedMin := float64(t-start) / 60
		out = append(out, SeriesPoint{T: t - start, V: stats.InstantThroughput(done, elapsedMin)})
	}
	return out
}

// RunningJobsSeries counts running jobs at each step through the batch
// (the Fig. 4 running-job footprint).
func RunningJobsSeries(events []htcondor.JobEvent, step sim.Time) []SeriesPoint {
	if step <= 0 {
		step = 1
	}
	type delta struct {
		t sim.Time
		d int
	}
	var deltas []delta
	start, end := sim.Forever, sim.Time(0)
	for _, ev := range events {
		if ev.At < start {
			start = ev.At
		}
		if ev.At > end {
			end = ev.At
		}
		switch ev.Type {
		case htcondor.EventExecute:
			deltas = append(deltas, delta{ev.At, +1})
		case htcondor.EventTerminated, htcondor.EventEvicted:
			deltas = append(deltas, delta{ev.At, -1})
		}
	}
	if end < start {
		return nil
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].t < deltas[j].t })
	var out []SeriesPoint
	di, running := 0, 0
	for t := start; t <= end; t += step {
		for di < len(deltas) && deltas[di].t <= t {
			running += deltas[di].d
			di++
		}
		out = append(out, SeriesPoint{T: t - start, V: float64(running)})
	}
	return out
}

// completionTimes extracts (start, end, sorted completion timestamps).
func completionTimes(events []htcondor.JobEvent) (start, end sim.Time, completions []sim.Time) {
	start, end = sim.Forever, 0
	for _, ev := range events {
		if ev.At < start {
			start = ev.At
		}
		if ev.At > end {
			end = ev.At
		}
		if ev.Type == htcondor.EventTerminated {
			completions = append(completions, ev.At)
		}
	}
	sort.Slice(completions, func(i, j int) bool { return completions[i] < completions[j] })
	return start, end, completions
}

// Report renders the batch summary as the fdw CLI prints it.
func (b *BatchStats) Report(w io.Writer) error {
	_, err := fmt.Fprintf(w, `batch %s
  runtime          %.2f h
  jobs             %d total, %d completed, %d aborted, %d evictions
  total throughput %.2f jobs/min
  exec time        mean %.1f min (sd %.1f, min %.1f, max %.1f)
  wait time        mean %.1f min (sd %.1f, min %.1f, max %.1f)
`,
		b.Name, b.RuntimeSecs/3600,
		b.TotalJobs, b.CompletedJobs, b.AbortedJobs, b.Evictions,
		b.ThroughputJPM,
		b.ExecMinutes.Mean, b.ExecMinutes.SD, b.ExecMinutes.Min, b.ExecMinutes.Max,
		b.WaitMinutes.Mean, b.WaitMinutes.SD, b.WaitMinutes.Min, b.WaitMinutes.Max)
	return err
}
