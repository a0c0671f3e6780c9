// Command fdw runs a FakeQuakes DAGMan Workflow on the simulated Open
// Science Pool and reports the monitoring statistics the paper's shell
// scripts compute, optionally writing the HTCondor user log and the
// batch/job trace CSVs the bursting simulator consumes.
//
// Usage:
//
//	fdw [flags]
//	fdw -config fdw.cfg -log run.log -trace-dir traces/
//	fdw -config fdw.cfg -emit artifacts/
//
// With no -config, flags select the workload directly. -emit writes
// that workflow's HTCondor artifacts instead of running it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fdw"
	"fdw/internal/core/atomicfile"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stderr))
}

// cli builds the configuration once and emits or runs it, returning
// the exit code: 1 on error, 2 on misuse, which includes a positional
// argument (flag parsing would stop there and drop what follows).
func cli(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdw", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		configPath = fs.String("config", "", "FDW configuration file (key = value)")
		name       = fs.String("name", "fdw", "batch name")
		waveforms  = fs.Int("waveforms", 1024, "number of waveforms to simulate")
		stations   = fs.Int("stations", 121, "GNSS station list length (2 or 121 in the paper)")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		logPath    = fs.String("log", "", "write the HTCondor user log here")
		traceDir   = fs.String("trace-dir", "", "write batch.csv and jobs.csv traces here")
		horizonH   = fs.Float64("horizon", 1000, "simulation horizon (hours)")
		emitDir    = fs.String("emit", "", "write fdw.dag + submit files here instead of running")
		metricsOut = fs.String("metrics", "", "write a JSON metrics snapshot here after the run")
	)
	fs.Parse(args) // exits 2 on a bad flag, 0 on -h
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fdw: unexpected argument %q: fdw takes flags only\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	cfg, err := loadConfig(*configPath, *name, *waveforms, *stations, *seed)
	switch {
	case err != nil:
	case *emitDir != "":
		if err = fdw.WriteArtifacts(cfg, *emitDir); err == nil {
			fmt.Printf("artifacts written to %s (fdw.dag, fdw.cfg, 4 submit files)\n", *emitDir)
		}
	default:
		err = run(cfg, *logPath, *traceDir, *horizonH, *metricsOut)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fdw:", err)
		return 1
	}
	return 0
}

// loadConfig reads the configuration file at configPath or, when it is
// empty, takes the default configuration with the workload flags.
func loadConfig(configPath, name string, waveforms, stations int, seed uint64) (fdw.Config, error) {
	cfg := fdw.DefaultConfig()
	if configPath == "" {
		cfg.Name, cfg.Waveforms, cfg.Stations, cfg.Seed = name, waveforms, stations, seed
		return cfg, nil
	}
	f, err := os.Open(configPath)
	if err != nil {
		return cfg, err
	}
	defer f.Close()
	return fdw.ParseConfig(f)
}

func run(cfg fdw.Config, logPath, traceDir string, horizonH float64, metricsOut string) error {
	// With -metrics the environment carries a registry clocked by the
	// simulation; results are identical either way.
	newEnv := fdw.NewEnv
	if metricsOut != "" {
		newEnv = fdw.NewMeteredEnv
	}
	env, err := newEnv(cfg.Seed, fdw.DefaultPoolConfig())
	if err != nil {
		return err
	}
	// The user log streams during the run but lands atomically: a
	// killed run leaves no partial log for burstsim to misread.
	var logW *atomicfile.File
	var logTo io.Writer // stays nil without -log: a nil *File is not a nil Writer
	if logPath != "" {
		logW, err = atomicfile.Create(logPath)
		if err != nil {
			return err
		}
		defer logW.Close()
		logTo = logW
	}
	w, err := fdw.NewWorkflow(cfg, env, logTo)
	if err != nil {
		return err
	}
	fmt.Printf("submitting DAGMan %q: %d waveforms, %d stations (seed %d)\n",
		cfg.Name, cfg.Waveforms, cfg.Stations, cfg.Seed)
	if err := fdw.RunBatch(env, []*fdw.Workflow{w}, fdw.SimTime(horizonH*3600)); err != nil {
		return err
	}
	if logW != nil {
		if err := logW.Commit(); err != nil {
			return err
		}
	}

	fmt.Printf("workflow finished in %.2f simulated hours (%.2f jobs/min)\n",
		w.RuntimeHours(), w.ThroughputJPM())
	started, completed, evictions := env.Pool.Stats()
	fmt.Printf("pool: %d starts, %d completions, %d evictions; stash hit rate %.0f%%\n",
		started, completed, evictions, env.Cache.HitRate()*100)

	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		batch, jobs, err := fdw.TraceFromWorkflow(w)
		if err != nil {
			return err
		}
		if err := atomicfile.WriteFile(filepath.Join(traceDir, "batch.csv"), func(w io.Writer) error {
			return fdw.WriteBatchCSV(w, batch)
		}); err != nil {
			return err
		}
		if err := atomicfile.WriteFile(filepath.Join(traceDir, "jobs.csv"), func(w io.Writer) error {
			return fdw.WriteJobsCSV(w, jobs)
		}); err != nil {
			return err
		}
		fmt.Printf("traces written to %s (batch.csv, jobs.csv — burstsim input)\n", traceDir)
	}

	if metricsOut != "" {
		if err := atomicfile.WriteFile(metricsOut, env.Obs.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot written to %s (render with fdwmon -metrics)\n", metricsOut)
	}
	return nil
}
