// Command fdwbench is the repository's benchmark: five of the paper's
// units of work, measured end to end from outside the program through
// its public calls, and split by layer in a traced repetition.
//
// The parent process re-executes itself once per (workload,
// repetition), one child at a time: three untraced repetitions per
// workload, interleaved across workloads, and with -trace 1 one traced
// repetition more. Each child builds its inputs and one reference pass
// (its set-up), then runs whole passes for its share of -seconds as a
// closed loop with one caller, checking every op's output against the
// reference pass. GOMAXPROCS is min(nproc, 4) and the experiment
// harness runs one worker, so the only parallelism is the program's own.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or
// with -trace 1 the per-layer ones. bench/README.md describes both.
//
// Usage:
//
//	go run ./bench/fdwbench [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-json out.json]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"fdw/internal/core/atomicfile"
	"fdw/internal/stats"
)

// reps is the number of untraced repetitions per workload.
const reps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("fdwbench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		list    = fs.String("workload", strings.Join(names, ","), "comma-separated workloads to run")
		seed    = fs.Uint64("seed", 11, "input seed: campaign seeds are {s, s+12, s+36}; FakeQuakes scenario i draws from sim.NewRNG(s).Split(i)")
		seconds = fs.Float64("seconds", 10, "measured seconds per workload, split over its repetitions (each runs at least one pass)")
		trace   = fs.Int("trace", 0, "1 adds a traced repetition per workload and prints the per-layer metrics instead of the end-to-end ones")
		jsonOut = fs.String("json", "", "also write every repetition's raw results and spans to this file")
		isChild = fs.Bool("child", false, "run one repetition of one workload and print its raw result (the parent process's protocol)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sel, err := selectWorkloads(*list)
	if err == nil && (*seconds < 0 || *trace < 0 || *trace > 1 || fs.NArg() > 0) {
		err = errors.New("want -seconds >= 0, -trace 0 or 1, and no arguments")
	}
	if err == nil && *isChild && len(sel) != 1 {
		err = errors.New("-child runs exactly one workload")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdwbench:", err)
		return 2
	}

	if *isChild {
		runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
		budget := time.Duration(*seconds * float64(time.Second))
		res, err := runChild(sel[0], *seed, budget, *trace == 1)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdwbench:", err)
			return 1
		}
		return 0
	}

	sums, err := runParent(sel, *seed, *seconds, *trace == 1)
	if err == nil && *jsonOut != "" {
		err = atomicfile.WriteFile(*jsonOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			return enc.Encode(struct {
				Seed      uint64     `json:"seed"`
				Seconds   float64    `json:"seconds"`
				Workloads []*summary `json:"workloads"`
			}{*seed, *seconds, sums})
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdwbench:", err)
		return 1
	}
	if err := printResult(stdout, sums, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "fdwbench:", err)
		return 1
	}
	return exitCode(sums)
}

func selectWorkloads(list string) ([]*workload, error) {
	var sel []*workload
	for _, name := range strings.Split(list, ",") {
		w, err := workloadByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		sel = append(sel, w)
	}
	return sel, nil
}

// runParent runs every repetition as a child process and summarizes.
func runParent(sel []*workload, seed uint64, seconds float64, trace bool) ([]*summary, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	budget := seconds / reps
	runs := map[string][]*childResult{}
	for rep := 0; rep < reps; rep++ {
		for _, w := range sel {
			r, err := spawn(exe, w.name, seed, budget, false)
			if err != nil {
				return nil, err
			}
			runs[w.name] = append(runs[w.name], r)
		}
	}
	sums := make([]*summary, len(sel))
	for i, w := range sel {
		var traced *childResult
		if trace {
			if traced, err = spawn(exe, w.name, seed, budget, true); err != nil {
				return nil, err
			}
		}
		sums[i] = summarize(w.name, runs[w.name], traced)
	}
	// Loading Green's functions must not change a waveform.
	var cold, warm *summary
	for _, s := range sums {
		switch s.Workload {
		case "fq121-cold":
			cold = s
		case "fq121-gfcache":
			warm = s
		}
	}
	if cold != nil && warm != nil && cold.Reps[0].RefDigest != warm.Reps[0].RefDigest {
		warm.fail(fmt.Sprintf("waveforms %s differ from fq121-cold's %s", warm.Reps[0].RefDigest, cold.Reps[0].RefDigest))
	}
	return sums, nil
}

// spawn runs one repetition in a child process and waits for it.
func spawn(exe, name string, seed uint64, budget float64, trace bool) (*childResult, error) {
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(budget, 'g', -1, 64), "-trace", traceArg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s repetition: %w", name, err)
	}
	var r childResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &r); err != nil {
		return nil, fmt.Errorf("%s repetition: %w", name, err)
	}
	return &r, nil
}

// summary is one workload's metrics over its repetitions.
type summary struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Reps      []*childResult     `json:"repetitions"`
	Traced    *childResult       `json:"traced,omitempty"`
}

// summarize pools the untraced repetitions into the end-to-end metrics
// (medians, latency quantiles over every op, and the run's peak RSS:
// the highest repetition's, since whether a repetition reaches its
// program's peak hinges on where GC cycles fall) and takes the
// per-layer metrics from the traced one. A repetition whose reference
// outputs differ from the first one's fails all its ops.
func summarize(name string, reps []*childResult, traced *childResult) *summary {
	s := &summary{Workload: name, Reps: reps, Traced: traced, PerLayer: map[string]float64{}}
	all := reps
	if traced != nil {
		all = append(reps[:len(reps):len(reps)], traced)
	}
	var setup, rates, opMS, rss []float64
	for i, r := range all {
		if r.RefDigest != all[0].RefDigest {
			r.Failed = r.Attempted
			r.Errors = append(r.Errors, fmt.Sprintf("repetition %d: reference outputs %s differ from the first repetition's %s", i, r.RefDigest, all[0].RefDigest))
		}
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		s.Errors = append(s.Errors, r.Errors...)
	}
	for _, r := range reps {
		setup = append(setup, r.SetupS)
		rates = append(rates, r.PassRates...)
		opMS = append(opMS, r.OpMS...)
		rss = append(rss, r.PeakRSSMB)
	}
	s.EndToEnd = map[string]float64{
		"setup_s":     stats.Percentile(setup, 50),
		"ops_per_s":   stats.Percentile(rates, 50),
		"op_p50_ms":   stats.Percentile(opMS, 50),
		"op_p90_ms":   stats.Percentile(opMS, 90),
		"peak_rss_mb": stats.Max(rss),
	}
	if traced != nil {
		for k, v := range traced.Layers {
			s.PerLayer[k] = v
		}
		s.PerLayer["harness.trace_overhead_pct"] = (1 - stats.Percentile(traced.PassRates, 50)/s.EndToEnd["ops_per_s"]) * 100
	}
	s.setFailedRatio()
	return s
}

func (s *summary) fail(msg string) {
	s.Failed = s.Attempted
	s.Errors = append(s.Errors, msg)
	s.setFailedRatio()
}

func (s *summary) setFailedRatio() {
	if s.Attempted > 0 {
		s.PerLayer["failed_ops_ratio"] = float64(s.Failed) / float64(s.Attempted)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result collects the end-to-end metrics, or with trace the per-layer
// ones; with several workloads each name is prefixed "<workload>/".
func result(sums []*summary, trace bool) resultLine {
	out := resultLine{Metrics: map[string]metricValue{}}
	for _, s := range sums {
		defs, values := endToEnd, s.EndToEnd
		if trace {
			defs, values = perLayer, s.PerLayer
		}
		for _, d := range defs {
			key := d.name
			if len(sums) > 1 {
				key = s.Workload + "/" + d.name
			}
			out.Metrics[key] = metricValue{values[d.name], d.unit}
		}
		out.Attempted += s.Attempted
		out.Failed += s.Failed
	}
	out.Correct = out.Failed == 0
	return out
}

// printResult prints one line per metric in name order, any errors to
// standard error, and the JSON result line last.
func printResult(w io.Writer, sums []*summary, trace bool) error {
	for _, s := range sums {
		for _, e := range s.Errors {
			fmt.Fprintf(os.Stderr, "fdwbench: %s: %s\n", s.Workload, e)
		}
	}
	res := result(sums, trace)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		if _, err := fmt.Fprintf(w, "%-52s %16.6g %s\n", k, m.Value, m.Unit); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// exitCode is 1 when any op failed.
func exitCode(sums []*summary) int {
	for _, s := range sums {
		if s.Failed > 0 {
			return 1
		}
	}
	return 0
}
