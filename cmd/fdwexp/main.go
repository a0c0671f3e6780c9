// Command fdwexp regenerates the paper's evaluation: one subcommand
// per figure plus the §6 headline numbers, and this repository's
// ablations, Policy 3, elastic and chaos experiments.
//
// Usage:
//
//	fdwexp [flags] fig1|fig2|fig3|fig4|fig5|fig6|headline|ablate|ablate-recycling|ablate-stash|ablate-fanout|ablate-churn|policy3|elastic|chaos|all
//	fdwexp -shard i/N [-resume] [-cells k] [-out dir] [-metrics path] experiment
//	fdwexp -sched workers=N [-crash-plan name] [-steal=bool] [-hedge] [-resume] [-cells k] [-out dir] [-csv dir] [-metrics path] experiment
//	fdwexp -merge [-csv dir] [-metrics path] manifest.json...
//	fdwexp -status bundle-dir|manifest.json...
//
// An experiment is any name of the first line except fig1, ablate and
// all: every one of them runs in-process, shards, schedules and merges
// the same way, and writes the same CSV files under -csv. A flag given
// with a mode it does not apply to is a usage error.
//
// Flags:
//
//	-scale f   workload scale (1.0 = the paper's quantities)
//	-seeds n   repetitions (the paper uses 3)
//	-j n       concurrent simulations (default: all cores; output is
//	           byte-identical for any -j, so -j only changes wall time)
//	-metrics p write the JSON metrics snapshot (byte-identical for any
//	           -j, and for -merge of shard or worker bundles)
//
// chaos runs the fault-injection sweep as a recovery A/B matrix
// (DESIGN.md §10–11): the Fig. 2 workload under every standard fault
// plan, each cell once with the adaptive recovery layer off and once
// with it on, with termination and job-conservation invariants
// enforced per cell and per-plan makespan / wasted-CPU deltas printed
// at the end.
//
// fig5 runs the bursting sweep uncapped (VDC usage, §5.3.1–5.3.2);
// fig6 reruns it with the paper's 30% bursted-job cap for the cost and
// runtime comparison (§5.3.3–5.3.4).
//
// -shard i/N runs one deterministic slice of an experiment and writes a
// manifest bundle (checkpointed after every cell; -resume picks up an
// interrupted one), and with -metrics the rollup of the shard's cells;
// -merge verifies a full set of shard bundles and reproduces the
// unsharded report/CSV byte-for-byte (DESIGN.md §13).
//
// -sched workers=N drives an experiment through the fault-tolerant
// scheduler (DESIGN.md §15): N logical workers under cell leases with
// heartbeat deadlines, atomically checkpointed per-worker bundles,
// optional scripted worker faults (-crash-plan), work-stealing
// (-steal, default on) and straggler hedging (-hedge). The merged
// report is byte-identical to the unsharded run under every crash
// plan; -metrics counts every cell the run executed.
//
// -status inventories manifest bundles (shard or scheduler) as JSON:
// per-bundle completion, fingerprint, and sim-clock provenance, plus
// campaign-level coverage rollups; exit 3 when anything is resumable.
//
// Exit codes: 0 success, 1 error, 2 usage, 3 shard incomplete
// (budget hit or merge of an unfinished shard — resume and retry).
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"fdw"
	"fdw/internal/core/atomicfile"
	"fdw/internal/expt"
	"fdw/internal/faults"
	"fdw/internal/obs"
	"fdw/internal/sched"
)

const usageLine = `usage: fdwexp [flags] fig1|fig2|fig3|fig4|fig5|fig6|headline|ablate|ablate-recycling|ablate-stash|ablate-fanout|ablate-churn|policy3|elastic|chaos|all
       fdwexp -shard i/N [-resume] [-cells k] [-out dir] [-metrics path] experiment
       fdwexp -sched workers=N [-crash-plan name] [-steal=bool] [-hedge] [-resume] [-cells k] [-out dir] [-csv dir] [-metrics path] experiment
       fdwexp -merge [-csv dir] [-metrics path] manifest.json...
       fdwexp -status bundle-dir|manifest.json...`

func main() {
	var (
		scale   = flag.Float64("scale", 1.0, "workload scale factor (0,1]")
		seeds   = flag.Int("seeds", 3, "number of repetitions")
		csvDir  = flag.String("csv", "", "also write the figure data as CSV into this directory")
		workers = flag.Int("j", 0, "concurrent simulations (0 = all cores); any value gives byte-identical output")
		metrics = flag.String("metrics", "", "write a JSON metrics snapshot here after the experiments")
		shard   = flag.String("shard", "", "run one shard i/N of a campaign and write its manifest bundle")
		merge   = flag.Bool("merge", false, "merge shard manifest bundles into the unsharded report")
		resume  = flag.Bool("resume", false, "with -shard/-sched: resume existing bundles, rerunning only incomplete cells")
		cells   = flag.Int("cells", 0, "with -shard/-sched: stop after this many cells (exit 3; -resume finishes)")
		outDir  = flag.String("out", ".", "with -shard/-sched: directory for the manifest bundles")
		schedN  = flag.String("sched", "", "run a campaign through the fault-tolerant scheduler with workers=N logical workers")
		plan    = flag.String("crash-plan", "", "with -sched: named scripted worker-fault plan (default none)")
		steal   = flag.Bool("steal", true, "with -sched: let other workers steal cells from expired leases")
		hedge   = flag.Bool("hedge", false, "with -sched: hedge straggler cells with duplicate leases")
		status  = flag.Bool("status", false, "print a JSON status report for manifest bundle dirs/files")
	)
	flag.Parse()
	opt := fdw.DefaultExperimentOptions()
	opt.Scale = *scale
	opt.Out = os.Stdout
	opt.Workers = *workers
	opt.Seeds = expt.Seeds(*seeds)
	if *metrics != "" {
		// Cells meter into their own registries, absorbed here in
		// canonical order: the snapshot is byte-identical at any -j.
		opt.Obs = fdw.NewMetrics(nil)
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	set["merge"], set["status"] = *merge, *status // -merge=false selects no mode
	mode, err := checkFlags(set, flag.NArg())
	switch {
	case err != nil: // a usage error, reported below
	case mode == "shard":
		err = runShardCmd(opt, *shard, flag.Arg(0), *outDir, *cells, *resume)
		if *metrics != "" && (err == nil || errors.Is(err, expt.ErrIncomplete)) {
			err = cmp.Or(writeShardMetrics(*metrics, *shard, flag.Arg(0), *outDir), err)
		}
	case mode == "sched":
		err = runSchedCmd(opt, schedOpts{
			spec: *schedN, plan: *plan, steal: *steal, hedge: *hedge,
			dir: *outDir, cells: *cells, resume: *resume, csvDir: *csvDir,
		}, flag.Arg(0))
		if err == nil && opt.Obs != nil {
			err = writeMetrics(*metrics, opt.Obs.Snapshot())
		}
	case mode == "merge":
		err = runMergeCmd(opt, *csvDir, *metrics, flag.Args())
	case mode == "status":
		err = runStatusCmd(opt, flag.Args())
	default:
		err = dispatch(flag.Arg(0), opt, *csvDir)
		if err == nil && opt.Obs != nil {
			err = writeMetrics(*metrics, opt.Obs.Snapshot())
		}
	}
	if err != nil {
		if errors.As(err, new(usageError)) {
			if msg := err.Error(); msg != "" {
				fmt.Fprintln(os.Stderr, "fdwexp:", msg)
			}
			fmt.Fprintln(os.Stderr, usageLine)
		} else {
			fmt.Fprintln(os.Stderr, "fdwexp:", err)
		}
		os.Exit(exitCode(err))
	}
}

// modeFlags are the mutually exclusive flags that each select a mode;
// naming none runs experiments by name.
var modeFlags = []string{"shard", "merge", "sched", "status"}

// modeOnly lists each mode-specific flag with the modes it applies to
// ("" is running experiments by name).
var modeOnly = []struct {
	flag  string
	modes []string
}{
	{"resume", []string{"shard", "sched"}},
	{"cells", []string{"shard", "sched"}},
	{"out", []string{"shard", "sched"}},
	{"crash-plan", []string{"sched"}},
	{"steal", []string{"sched"}},
	{"hedge", []string{"sched"}},
	{"csv", []string{"", "sched", "merge"}},
	{"metrics", []string{"", "shard", "sched", "merge"}},
}

// checkFlags validates a command line from the names of the flags it
// set and its argument count, and returns the mode it selects: one of
// modeFlags, or "" to run experiments by name.
func checkFlags(set map[string]bool, nargs int) (string, error) {
	mode := ""
	for _, m := range modeFlags {
		if !set[m] {
			continue
		}
		if mode != "" {
			return "", usageErrorf("-shard, -merge, -sched, and -status are mutually exclusive")
		}
		mode = m
	}
	for _, o := range modeOnly {
		if set[o.flag] && !slices.Contains(o.modes, mode) {
			var with []string
			for _, m := range o.modes {
				if m == "" {
					m = "a plain run"
				} else {
					m = "-" + m
				}
				with = append(with, m)
			}
			return "", usageErrorf("-%s only applies with %s", o.flag, strings.Join(with, " or "))
		}
	}
	switch mode {
	case "":
		if nargs != 1 {
			return "", usageErrorf("")
		}
	case "shard", "sched":
		if nargs != 1 {
			return "", usageErrorf("-%s needs exactly one campaign argument", mode)
		}
	default:
		if nargs < 1 {
			return "", usageErrorf("-%s needs at least one bundle dir or manifest path", mode)
		}
	}
	return mode, nil
}

// usageError marks command-line misuse (exit 2).
type usageError string

func (e usageError) Error() string { return string(e) }

func usageErrorf(format string, args ...any) error {
	return usageError(fmt.Sprintf(format, args...))
}

// exitCode maps an error to the documented process exit code: 2 for
// usage, 3 for an incomplete/resumable shard, 1 otherwise.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.As(err, new(usageError)):
		return 2
	case errors.Is(err, expt.ErrIncomplete):
		return 3
	default:
		return 1
	}
}

// parseShardSpec parses "i/N" (1-based).
func parseShardSpec(s string) (index, total int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &index, &total); err != nil || fmt.Sprintf("%d/%d", index, total) != s {
		return 0, 0, usageErrorf("bad -shard %q, want i/N (e.g. 2/4)", s)
	}
	if total < 1 || index < 1 || index > total {
		return 0, 0, usageErrorf("-shard %s out of range", s)
	}
	return index, total, nil
}

// shardBundlePath is the conventional manifest name for a shard.
func shardBundlePath(dir, campaign string, index, total int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.shard%dof%d.json", campaign, index, total))
}

// runShardCmd executes one campaign shard, checkpointing its manifest
// bundle under dir. Incomplete runs surface expt.ErrIncomplete (exit
// 3) with the bundle left resumable on disk.
func runShardCmd(opt fdw.ExperimentOptions, spec, campaign, dir string, maxCells int, resume bool) error {
	index, total, err := parseShardSpec(spec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := shardBundlePath(dir, campaign, index, total)
	m, err := expt.RunShard(opt, expt.ShardRun{
		Campaign: campaign,
		Index:    index,
		Total:    total,
		Path:     path,
		MaxCells: maxCells,
		Resume:   resume,
	})
	if m != nil {
		fmt.Fprintf(os.Stderr, "fdwexp: shard %d/%d of %s: %d/%d cells done, manifest %s\n",
			index, total, campaign, m.Ledger.DoneCount(), len(m.Ledger.Nodes), path)
	}
	return err
}

// schedOpts carries the -sched flag bundle so runSchedCmd stays
// callable from tests without a ten-argument signature.
type schedOpts struct {
	spec, plan   string
	steal, hedge bool
	dir          string
	cells        int
	resume       bool
	csvDir       string
}

// parseSchedSpec parses "workers=N" (bare "N" is accepted too).
func parseSchedSpec(s string) (int, error) {
	var n int
	v := strings.TrimPrefix(s, "workers=")
	if _, err := fmt.Sscanf(v, "%d", &n); err != nil || fmt.Sprint(n) != v || n < 1 {
		return 0, usageErrorf("bad -sched %q, want workers=N (N >= 1)", s)
	}
	return n, nil
}

// runSchedCmd drives one campaign through the fault-tolerant
// scheduler and finalizes the merged in-memory ledger through the
// ordinary campaign report path.
func runSchedCmd(opt fdw.ExperimentOptions, so schedOpts, campaign string) error {
	n, err := parseSchedSpec(so.spec)
	if err != nil {
		return err
	}
	wplan, err := faults.WorkerPlanByName(so.plan)
	if err != nil {
		return usageErrorf("%v", err)
	}
	h, err := expt.OpenCampaign(campaign, opt)
	if err != nil {
		return err
	}
	res, err := sched.Run(h, sched.Config{
		Workers:  n,
		Steal:    so.steal,
		Hedge:    so.hedge,
		Plan:     wplan,
		Dir:      so.dir,
		MaxCells: so.cells,
		Resume:   so.resume,
		Obs:      opt.Obs,
	})
	if res != nil {
		fmt.Fprintf(os.Stderr, "fdwexp: sched %s: %d workers, plan %s: %d/%d cells acked, %d crashes, %d steals, %d hedges, bundles under %s\n",
			campaign, n, wplan.Name, len(res.Records), len(h.CellIDs()),
			res.Stats.WorkerCrashes, res.Stats.CellsStolen, res.Stats.CellsHedged, so.dir)
	}
	if err != nil {
		return err
	}
	mr, err := h.Finalize(nil, res.Records)
	if err != nil {
		return err
	}
	return writeCSVs(so.csvDir, mr.CSVs...)
}

// runStatusCmd prints the JSON bundle inventory for every argument
// (directories expand to their *.json entries). Unreadable bundles
// exit 1; readable-but-resumable state exits 3.
func runStatusCmd(opt fdw.ExperimentOptions, args []string) error {
	paths, err := expt.StatusPaths(args)
	if err != nil {
		return err
	}
	rep, err := expt.Status(opt, paths)
	if err != nil {
		return err
	}
	if err := expt.WriteStatus(opt.Out, rep); err != nil {
		return err
	}
	if rep.HasErrors() {
		return fmt.Errorf("status: unreadable manifest bundle(s), see report")
	}
	if rep.Resumable() {
		return fmt.Errorf("%w: resumable bundles present", expt.ErrIncomplete)
	}
	return nil
}

// writeShardMetrics writes the rollup of the cells in a shard's bundle
// to path, through the helper -merge uses (expt.RollupMetrics).
func writeShardMetrics(path, spec, campaign, dir string) error {
	index, total, err := parseShardSpec(spec)
	if err != nil {
		return err
	}
	m, err := expt.ReadCampaignManifestFile(shardBundlePath(dir, campaign, index, total))
	if err != nil {
		return err
	}
	snap, err := expt.RollupMetrics(m.Cells)
	if err != nil {
		return err
	}
	return writeMetrics(path, snap)
}

// runMergeCmd stitches shard bundles back into the unsharded report
// (stdout), CSV (-csv), and metrics rollup (-metrics).
func runMergeCmd(opt fdw.ExperimentOptions, csvDir, metricsPath string, paths []string) error {
	res, err := expt.MergeManifestFiles(opt, paths)
	if err != nil {
		return err
	}
	if err := writeCSVs(csvDir, res.CSVs...); err != nil {
		return err
	}
	if metricsPath != "" {
		return writeMetrics(metricsPath, res.Metrics)
	}
	return nil
}

// writeMetrics dumps a metrics snapshot as JSON. Like the CSVs below
// it goes through atomicfile: a killed -shard run must never leave a
// partial report next to a valid manifest bundle.
func writeMetrics(path string, snap *obs.Snapshot) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return fdw.WriteMetricsSnapshot(w, snap)
	})
}

// writeCSVs saves figure data files under dir when -csv is set.
func writeCSVs(dir string, csvs ...expt.CSV) error {
	if dir == "" || len(csvs) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, c := range csvs {
		if err := atomicfile.WriteFile(filepath.Join(dir, c.Name), c.Write); err != nil {
			return err
		}
	}
	return nil
}

// allExperiments is what "all" runs, in order, each report followed
// by a blank line.
var allExperiments = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "headline", "ablate", "policy3", "elastic"}

// dispatch runs fig1, a name list, or one registered experiment and
// writes the experiment's declared CSV files under csvDir.
func dispatch(cmd string, opt fdw.ExperimentOptions, csvDir string) error {
	switch cmd {
	case "fig1":
		return runFig1(opt.Out, opt.Obs)
	case "ablate":
		for _, c := range []string{"ablate-recycling", "ablate-stash", "ablate-fanout", "ablate-churn"} {
			if err := dispatch(c, opt, csvDir); err != nil {
				return err
			}
		}
		return nil
	case "all":
		for _, c := range allExperiments {
			if err := dispatch(c, opt, csvDir); err != nil {
				return fmt.Errorf("%s: %w", c, err)
			}
			fmt.Fprintln(opt.Out)
		}
		return nil
	}
	res, err := expt.Run(cmd, opt)
	if err != nil {
		return err
	}
	return writeCSVs(csvDir, res.CSVs...)
}

// runFig1 prints the Fig. 1 data products to w and meters the rupture
// job's factor cache into reg (nil: unmetered).
func runFig1(w io.Writer, reg *fdw.Metrics) error {
	prod, err := expt.Fig1(1, 8.1, 5, "", reg)
	if err != nil {
		return err
	}
	r := prod.Rupture
	fmt.Fprintf(w, "Fig. 1 — FakeQuakes data products\n")
	fmt.Fprintf(w, "rupture %s: target Mw %.2f, realized Mw %.2f, %d subfaults, max slip %.2f m, duration %.0f s\n",
		r.ID, r.TargetMw, r.ActualMw, len(r.Patch), r.MaxSlip(), r.Duration())
	for _, wf := range prod.Waveforms {
		fmt.Fprintf(w, "  station %-5s PGD %.3f m\n", wf.Station, wf.PGD())
	}
	return nil
}
