package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"fdw/internal/obs"
	"fdw/internal/stats"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, per workload,
// from the untraced repetitions.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "ops/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// cpuModules are the fdw/internal modules the workloads reach.
var cpuModules = []string{
	"burst", "classad", "core", "dagman", "expt", "fakequakes", "faults", "geom", "htcondor", "linalg",
	"mseed", "npy", "obs", "ospool", "recovery", "sched", "sim", "stash", "stats", "wtrace",
}

// perLayer are the metrics of the traced repetition. Every workload
// reports all of them; a layer a workload does not reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"failed_ops_ratio", "ratio"},
		{"harness.cpu_share", "share"},
		{"harness.trace_overhead_pct", "%"},
		{"harness.unattributed_pct", "%"},
		{"process.cpu_s_per_op", "s/op"},
		{"runtime.alloc_mb_per_op", "MB/op"},
		{"runtime.allocs_per_op", "count/op"},
		{"runtime.gc_cpu_pct", "%"},
		{"runtime.gc_cpu_share", "share"},
		{"runtime.gc_cycles_per_op", "count/op"},
		{"runtime.other_cpu_share", "share"},
		{"fakequakes.greens_mb", "MB"},
		{"fakequakes.greens_mb_per_s", "MB/s"},
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{m + ".cpu_share", "share"})
	}
	for _, s := range spanMetrics {
		defs = append(defs, metricDef{s.metric, s.unit})
	}
	for _, o := range obsCounts {
		defs = append(defs, metricDef{o.metric, o.unit})
	}
	for _, o := range obsRatios {
		defs = append(defs, metricDef{o.metric, "ratio"})
	}
	return append(defs, perOpCounts...)
}()

// perOpCounts are what workloads add up over the measured passes,
// reported per op.
var perOpCounts = []metricDef{
	{"mseed.mb_per_op", "MB/op"},
	{"sched.bundle_kb", "KB/op"},
	{"sched.cells_executed_per_op", "count/op"},
	{"sched.checkpoints_per_op", "count/op"},
	{"sched.duplicates_per_op", "count/op"},
	{"sched.requeued_per_op", "count/op"},
	{"sched.steals_per_op", "count/op"},
	{"sched.useful_ratio", "ratio"},
	{"sim.simsecs_per_op", "simsec/op"},
}

type spanKind int

const (
	perOpMS     spanKind = iota // total time per measured op
	selfPerOpMS                 // time not covered by nested spans, per op
	p90MS                       // 90th percentile of single calls
	setupMS                     // total in set-up
	setupS
)

// spanMetrics derive from the harness-timed spans.
var spanMetrics = []struct {
	metric, span, unit string
	kind               spanKind
}{
	{"expt.run_cell_ms_per_op", "expt.run_cell", "ms/op", perOpMS},
	{"expt.finalize_ms", "expt.finalize", "ms/op", perOpMS},
	{"expt.merge_ms", "expt.merge", "ms/op", perOpMS},
	{"sched.run_ms", "sched.run", "ms/op", perOpMS},
	{"sched.control_ms", "sched.run", "ms/op", selfPerOpMS},
	{"fakequakes.greens_ms", "fakequakes.greens", "ms/op", perOpMS},
	{"fakequakes.gfcache_load_ms", "fakequakes.gfcache_load", "ms/op", perOpMS},
	{"fakequakes.rupture_ms", "fakequakes.rupture", "ms/op", perOpMS},
	{"fakequakes.rupture_ms_p90", "fakequakes.rupture", "ms", p90MS},
	{"fakequakes.synth_ms", "fakequakes.synth", "ms/op", perOpMS},
	{"fakequakes.synth_ms_p90", "fakequakes.synth", "ms", p90MS},
	{"mseed.encode_ms", "mseed.encode", "ms/op", perOpMS},
	{"geom.fault_ms", "geom.fault", "ms", setupMS},
	{"fakequakes.distance_ms", "fakequakes.distance", "ms", setupMS},
	{"fakequakes.gfcache_fill_s", "fakequakes.gfcache_fill", "s", setupS},
}

// obsCounts are counter totals from the obs snapshot, per measured op,
// optionally restricted to one label value and scaled.
var obsCounts = []struct {
	metric, unit, counter, label, value string
	scale                               float64
}{
	{"ospool.negotiation_cycles_per_op", "count/op", "fdw_ospool_negotiation_cycles_total", "", "", 1},
	{"ospool.matches_per_op", "count/op", "fdw_ospool_matches_total", "", "", 1},
	{"ospool.glideins_requested_per_op", "count/op", "fdw_ospool_glideins_requested_total", "", "", 1},
	{"ospool.job_retries_per_op", "count/op", "fdw_ospool_job_retries_total", "", "", 1},
	{"ospool.preemptions_per_op", "count/op", "fdw_ospool_preemptions_total", "", "", 1},
	{"htcondor.schedd_events_per_op", "count/op", "fdw_schedd_events_total", "", "", 1},
	{"htcondor.jobs_per_op", "count/op", "fdw_schedd_events_total", "type", "Job submitted from host", 1},
	{"dagman.node_submissions_per_op", "count/op", "fdw_dagman_node_submissions_total", "", "", 1},
	{"dagman.retries_per_op", "count/op", "fdw_dagman_retries_total", "", "", 1},
	{"stash.mb_per_op", "MB/op", "fdw_stash_bytes_total", "", "", 1e-6},
	{"burst.decisions_per_op", "count/op", "fdw_burst_decisions_total", "", "", 1},
	{"burst.jobs_per_op", "count/op", "fdw_burst_jobs_total", "", "", 1},
	{"faults.injected_per_op", "count/op", "fdw_faults_injected_total", "", "", 1},
	{"recovery.hedges_per_op", "count/op", "fdw_recovery_hedges_submitted_total", "", "", 1},
}

// obsRatios are hits ÷ (hits + misses) over the measured passes.
var obsRatios = []struct{ metric, hits, misses string }{
	{"stash.hit_ratio", "fdw_stash_hits_total", "fdw_stash_misses_total"},
	{"fakequakes.covcache_hit_ratio", "fdw_covcache_hits_total", "fdw_covcache_misses_total"},
	{"fakequakes.gfcache_hit_ratio", "fdw_gfcache_hits_total", "fdw_gfcache_misses_total"},
}

// runtimeSamples are read from runtime/metrics around the measured
// passes, in the order finish indexes them.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// tracer holds the traced repetition's state from before its measured
// passes: an obs snapshot, runtime and process counters, and the CPU
// profile being written.
type tracer struct {
	prof    bytes.Buffer
	before  *obs.Snapshot
	runtime []float64
	cpuS    float64
}

func (c *child) startTrace() (*tracer, error) {
	reg := c.reg
	if reg == nil {
		return nil, nil
	}
	t := &tracer{before: reg.Snapshot(), runtime: readRuntime(), cpuS: cpuSeconds()}
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return nil, err
	}
	return t, nil
}

// finish stops tracing and computes every per-layer metric.
func (t *tracer) finish(c *child) (map[string]float64, error) {
	pprof.StopCPUProfile()
	rt, cpuS := readRuntime(), cpuSeconds()
	reg := c.reg
	after := reg.Snapshot()
	ops := float64(c.res.Attempted)
	l := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		l[m.name] = 0
	}
	c.spanLayers(l, ops)
	for _, m := range perOpCounts {
		l[m.name] = c.perOp[m.name] / ops
	}
	delta := func(name, label, value string) float64 {
		return counterSum(after, name, label, value) - counterSum(t.before, name, label, value)
	}
	for _, o := range obsCounts {
		l[o.metric] = delta(o.counter, o.label, o.value) * o.scale / ops
	}
	for _, o := range obsRatios {
		hits, misses := delta(o.hits, "", ""), delta(o.misses, "", "")
		if hits+misses > 0 {
			l[o.metric] = hits / (hits + misses)
		}
	}
	shares, err := cpuShares(t.prof.Bytes())
	if err != nil {
		return nil, err
	}
	for name, v := range shares {
		l[name] = v
	}
	d := make([]float64, len(rt))
	for i := range rt {
		d[i] = rt[i] - t.runtime[i]
	}
	l["runtime.alloc_mb_per_op"] = d[0] / 1e6 / ops
	l["runtime.allocs_per_op"] = d[1] / ops
	l["runtime.gc_cycles_per_op"] = d[2] / ops
	if busy := d[4] - d[5]; busy > 0 {
		l["runtime.gc_cpu_pct"] = d[3] / busy * 100
	}
	l["process.cpu_s_per_op"] = (cpuS - t.cpuS) / ops
	return l, nil
}

// spanLayers derives the span metrics, Phase B throughput, and the
// share of measured pass time no top-level span covers.
func (c *child) spanLayers(l map[string]float64, ops float64) {
	total, self, setup := map[string]float64{}, map[string]float64{}, map[string]float64{}
	calls := map[string][]float64{}
	var covered float64
	for _, s := range c.res.Spans {
		if s.Pass < 0 {
			setup[s.Name] += s.MS
			continue
		}
		total[s.Name] += s.MS
		self[s.Name] += s.SelfMS
		calls[s.Name] = append(calls[s.Name], s.MS)
		if s.Top {
			covered += s.MS
		}
	}
	for _, m := range spanMetrics {
		switch m.kind {
		case perOpMS:
			l[m.metric] = total[m.span] / ops
		case selfPerOpMS:
			l[m.metric] = self[m.span] / ops
		case p90MS:
			l[m.metric] = stats.Percentile(calls[m.span], 90)
		case setupMS:
			l[m.metric] = setup[m.span]
		case setupS:
			l[m.metric] = setup[m.span] / 1e3
		}
	}
	l["fakequakes.greens_mb"] = c.greensMB
	phaseB := append(calls["fakequakes.greens"], calls["fakequakes.gfcache_load"]...)
	if len(phaseB) > 0 {
		l["fakequakes.greens_mb_per_s"] = c.greensMB / (stats.Mean(phaseB) / 1e3)
	}
	wall := ms(c.passWall)
	l["harness.unattributed_pct"] = (wall - covered) / wall * 100
}

// counterSum totals a counter over its label sets, or over those whose
// label equals value when label is set.
func counterSum(s *obs.Snapshot, name, label, value string) float64 {
	var sum float64
	for _, c := range s.Counters {
		if c.Name == name && (label == "" || c.Labels[label] == value) {
			sum += float64(c.Value)
		}
	}
	return sum
}

func readRuntime() []float64 {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	out := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB reads the process's peak resident set (VmHWM, Linux) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
