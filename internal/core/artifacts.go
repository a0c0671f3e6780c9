package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"fdw/internal/core/atomicfile"
	"fdw/internal/htcondor"
)

// WriteArtifacts materializes the workflow as the on-disk artifacts a
// real FDW run submits to HTCondor: an fdw.dag DAGMan file plus one
// submit-description file per phase, describing the same jobs the
// simulator runs (phaseJob): resource requests, retry budget and the
// +FDW* work-model attributes. The files round-trip through this
// repository's own DAGMan and submit-file parsers, so they double as
// golden fixtures. Each file is written atomically (temp + rename):
// condor_submit_dag on a half-written DAG would submit a half DAG.
// fdw.dag is written last, so a failed emit leaves no DAG that names a
// missing submit file.
func WriteArtifacts(cfg Config, dir string) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d, err := BuildDAG(cfg)
	if err != nil {
		return err
	}
	for _, p := range []struct {
		file  string
		phase Phase
	}{
		{"fdw_matrices.sub", PhaseMatrix},
		{"fdw_phase_a.sub", PhaseA},
		{"fdw_phase_b.sub", PhaseB},
		{"fdw_phase_c.sub", PhaseC},
	} {
		n, j, err := phaseJob(cfg, p.phase)
		if err != nil {
			return err
		}
		sf := &htcondor.SubmitFile{
			Commands: map[string]string{
				"universe":       "vanilla",
				"executable":     j.Executable,
				"arguments":      fmt.Sprintf("--batch %s --task $(Process)", cfg.Name),
				"request_cpus":   strconv.Itoa(j.RequestCpus),
				"request_memory": fmt.Sprintf("%dGB", j.RequestMemoryMB/1024),
				"request_disk":   fmt.Sprintf("%dGB", j.RequestDiskMB/1024),
				"requirements":   j.Requirements,
				"max_retries":    strconv.Itoa(j.MaxRetries),
				"log":            cfg.Name + ".log",
			},
			Plus: map[string]string{
				"FDWPhase":       strconv.Quote(string(p.phase)),
				"FDWExecSeconds": strconv.FormatFloat(j.BaseExecSeconds, 'f', 0, 64),
				"FDWInputBytes":  strconv.FormatInt(j.InputBytes, 10),
				"FDWOutputBytes": strconv.FormatInt(j.OutputBytes, 10),
			},
			QueueN: n,
		}
		if err := atomicfile.WriteFile(filepath.Join(dir, p.file), sf.Write); err != nil {
			return fmt.Errorf("core: %s: %w", p.file, err)
		}
	}
	if err := atomicfile.WriteFile(filepath.Join(dir, "fdw.cfg"), func(w io.Writer) error {
		return WriteConfig(w, cfg)
	}); err != nil {
		return err
	}
	return atomicfile.WriteFile(filepath.Join(dir, "fdw.dag"), d.Write)
}
