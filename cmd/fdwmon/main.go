// Command fdwmon is FDW's monitoring tool: it parses an HTCondor user
// log (as written by cmd/fdw or a live schedd) and reports the batch
// statistics the paper's shell scripts compute — runtime, job counts,
// execution/wait distributions, total throughput — plus terminal
// sparklines of the instant-throughput and running-job series.
//
// Usage:
//
//	fdwmon -log run.log [-step 60] [-metrics run-metrics.json]
//
// With -metrics it also renders the JSON metrics snapshot written by
// fdw/fdwexp -metrics (counters, gauges, histogram quantiles, spans)
// alongside the log-derived statistics; -metrics alone is accepted too.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"fdw"
)

func main() {
	var (
		logPath     = flag.String("log", "", "HTCondor user log to analyze")
		stepS       = flag.Float64("step", 60, "series sample step (seconds)")
		metricsPath = flag.String("metrics", "", "JSON metrics snapshot to render (from fdw/fdwexp -metrics)")
	)
	flag.Parse()
	if *logPath == "" && *metricsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *logPath != "" {
		if err := run(*logPath, *stepS); err != nil {
			fmt.Fprintln(os.Stderr, "fdwmon:", err)
			os.Exit(1)
		}
	}
	if *metricsPath != "" {
		if err := renderMetrics(*metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "fdwmon:", err)
			os.Exit(1)
		}
	}
}

// renderMetrics pretty-prints a JSON metrics snapshot.
func renderMetrics(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	snap, err := fdw.ReadMetricsSnapshot(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("metrics snapshot %s:\n", path)
	return snap.WriteText(os.Stdout)
}

func run(logPath string, stepS float64) error {
	f, err := os.Open(logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := fdw.ParseUserLog(f)
	if err != nil {
		return err
	}
	stats, err := fdw.AnalyzeEvents(logPath, events)
	if err != nil {
		return err
	}
	if err := stats.Report(os.Stdout); err != nil {
		return err
	}
	step := fdw.SimTime(stepS)
	tput := fdw.InstantThroughputSeries(events, step)
	running := fdw.RunningJobsSeries(events, step)
	fmt.Printf("instant throughput (max %.1f jobs/min):\n  %s\n", maxOf(tput), sparkline(tput, 72))
	fmt.Printf("running jobs (max %.0f):\n  %s\n", maxOf(running), sparkline(running, 72))
	return nil
}

// sparkline renders a series as a fixed-width block-character strip.
func sparkline(series []fdw.SeriesPoint, width int) string {
	if len(series) == 0 {
		return "(no data)"
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	peak := maxOf(series)
	if peak <= 0 {
		peak = 1
	}
	if width > len(series) {
		width = len(series)
	}
	var sb strings.Builder
	for i := 0; i < width; i++ {
		// Average the bucket of samples this column covers.
		lo := i * len(series) / width
		hi := (i + 1) * len(series) / width
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, p := range series[lo:hi] {
			sum += p.V
		}
		v := sum / float64(hi-lo)
		idx := int(math.Round(v / peak * float64(len(blocks)-1)))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(blocks) {
			idx = len(blocks) - 1
		}
		sb.WriteRune(blocks[idx])
	}
	return sb.String()
}

func maxOf(series []fdw.SeriesPoint) float64 {
	var m float64
	for _, p := range series {
		if p.V > m {
			m = p.V
		}
	}
	return m
}
