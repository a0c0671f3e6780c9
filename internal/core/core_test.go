package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fdw/internal/dagman"
	"fdw/internal/htcondor"
	"fdw/internal/ospool"
	"fdw/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.Waveforms = 0 },
		func(c *Config) { c.Stations = 0 },
		func(c *Config) { c.RupturesPerJob = 0 },
		func(c *Config) { c.WaveformsPerJob = 0 },
		func(c *Config) { c.MinMw = 9.5 },
		func(c *Config) { c.SlipKernel = "fractal" },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestJobCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Waveforms = 16000
	m, a, b, c, total := cfg.JobCounts()
	if m != 0 {
		t.Fatalf("matrix jobs %d with recycling", m)
	}
	if a != 1000 || b != 1 || c != 8000 {
		t.Fatalf("counts a=%d b=%d c=%d", a, b, c)
	}
	if total != 9001 {
		t.Fatalf("total %d, want 9001", total)
	}
	// Paper calibration: jobs ≈ 0.56 × waveforms.
	ratio := float64(total) / 16000
	if ratio < 0.5 || ratio > 0.6 {
		t.Fatalf("jobs/waveforms ratio %v", ratio)
	}
	cfg.RecycleMatrices = false
	m, _, _, _, total2 := cfg.JobCounts()
	if m != 1 || total2 != total+1 {
		t.Fatal("matrix job not added without recycling")
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Name = "batch-7"
	cfg.Waveforms = 5120
	cfg.Stations = 2
	cfg.Seed = 99
	var buf bytes.Buffer
	if err := WriteConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := ParseConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("round trip changed config:\n%+v\n%+v", cfg, got)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := map[string]string{
		"no equals":   "waveforms 100\n",
		"unknown key": "frobnication = 7\n",
		"bad int":     "waveforms = lots\n",
		"bad bool":    "recycle_matrices = perhaps\n",
		"invalid":     "waveforms = -5\n",
	}
	for name, src := range cases {
		if _, err := ParseConfig(strings.NewReader(src)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestParseConfigCommentsAndDefaults(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader("# comment\n\nwaveforms = 2000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Waveforms != 2000 {
		t.Fatalf("waveforms %d", cfg.Waveforms)
	}
	if cfg.Stations != 121 { // default preserved
		t.Fatalf("stations %d", cfg.Stations)
	}
}

func TestWorkModelCalibration(t *testing.T) {
	// §5.2.3: waveform jobs with 121 stations take 15–20 min.
	full := WaveformJobSecs(121, 2)
	if full < 15*60 || full > 20*60 {
		t.Fatalf("full-input waveform job %v s, want 900–1200", full)
	}
	// With 2 stations, under a minute.
	small := WaveformJobSecs(2, 2)
	if small >= 60 {
		t.Fatalf("small-input waveform job %v s, want <60", small)
	}
	// Rupture jobs ≈ 2.5 minutes.
	if r := RuptureJobSecs(16); r != 150 {
		t.Fatalf("rupture job %v s, want 150", r)
	}
	// B phase spans multiple hours with the full list.
	if gf := GFJobSecs(121); gf < 2*3600 {
		t.Fatalf("phase B %v s, want multiple hours", gf)
	}
	if gf := GFJobSecs(2); gf > 600 {
		t.Fatalf("phase B small input %v s, want minutes", gf)
	}
}

func TestBuildDAGShape(t *testing.T) {
	d, err := BuildDAG(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes) != 4 {
		t.Fatalf("%d nodes", len(d.Nodes))
	}
	if !d.Nodes["matrices"].Done {
		t.Fatal("recycled matrices node should be DONE")
	}
	c := d.Nodes["phaseC"]
	if len(c.Parents) != 2 {
		t.Fatalf("phaseC parents %v", c.Parents)
	}
	cfg := DefaultConfig()
	cfg.RecycleMatrices = false
	d2, err := BuildDAG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Nodes["matrices"].Done {
		t.Fatal("matrix node should run without recycling")
	}
}

func TestBuildJobsPhases(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Waveforms = 64
	rng := sim.NewRNG(1)
	for _, tc := range []struct {
		phase Phase
		wantN int
	}{
		{PhaseMatrix, 1},
		{PhaseA, 4},
		{PhaseB, 1},
		{PhaseC, 32},
	} {
		jobs, err := buildJobs(cfg, tc.phase, "u", rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != tc.wantN {
			t.Fatalf("phase %s: %d jobs, want %d", tc.phase, len(jobs), tc.wantN)
		}
		for _, j := range jobs {
			if j.BaseExecSeconds <= 0 || j.RequestCpus != 4 {
				t.Fatalf("phase %s job malformed: %+v", tc.phase, j)
			}
			if j.InputKey == "" || j.InputBytes <= 0 {
				t.Fatalf("phase %s job lacks transfer model", tc.phase)
			}
		}
	}
	if _, err := buildJobs(cfg, Phase("Z"), "u", rng); err == nil {
		t.Fatal("unknown phase accepted")
	}
}

// smallPool returns a fast pool config for end-to-end tests.
func smallPool() ospool.Config {
	cfg := ospool.DefaultConfig()
	cfg.GlideinRampMean = 120
	return cfg
}

func TestWorkflowEndToEnd(t *testing.T) {
	env, err := NewEnv(1, smallPool())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Waveforms = 256
	cfg.Stations = 2
	cfg.Name = "e2e"
	var logBuf bytes.Buffer
	w, err := NewWorkflow(cfg, env.Kernel, env.Pool, &logBuf)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunBatch(env, []*Workflow{w}, 48*3600); err != nil {
		t.Fatal(err)
	}
	if !w.Done() {
		t.Fatal("workflow not done")
	}
	_, _, _, _, total := cfg.JobCounts()
	if w.Schedd.Completed() != total {
		t.Fatalf("completed %d, want %d", w.Schedd.Completed(), total)
	}
	if w.RuntimeHours() <= 0 || w.ThroughputJPM() <= 0 {
		t.Fatalf("runtime %v h, throughput %v", w.RuntimeHours(), w.ThroughputJPM())
	}

	// The log must reproduce the same statistics.
	events, err := htcondor.ParseUserLog(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeEvents("e2e", events)
	if err != nil {
		t.Fatal(err)
	}
	if b.CompletedJobs != total {
		t.Fatalf("log says %d completed, want %d", b.CompletedJobs, total)
	}
	if b.ThroughputJPM <= 0 {
		t.Fatal("log throughput non-positive")
	}
}

func TestWorkflowPhaseOrderInLog(t *testing.T) {
	env, err := NewEnv(2, smallPool())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Waveforms = 64
	cfg.Stations = 2
	cfg.Name = "order"
	w, err := NewWorkflow(cfg, env.Kernel, env.Pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A node is submitted only once its parents are done; the first job
	// of each submitted cluster names its phase.
	var phaseOrder []string
	w.Schedd.Subscribe(func(j *htcondor.Job, ev htcondor.EventType) {
		if ev == htcondor.EventSubmit && j.Proc == 0 {
			phaseOrder = append(phaseOrder, j.Executable)
		}
	})
	if err := RunBatch(env, []*Workflow{w}, 48*3600); err != nil {
		t.Fatal(err)
	}
	if len(phaseOrder) != 3 {
		t.Fatalf("node submissions %v", phaseOrder)
	}
	if phaseOrder[2] != "fdw_phase_C.sh" {
		t.Fatalf("phaseC submitted out of order: %v", phaseOrder)
	}
}

func TestAnalyzeEventsEmpty(t *testing.T) {
	if _, err := AnalyzeEvents("x", nil); err == nil {
		t.Fatal("empty events accepted")
	}
	// Submit-only stream has no completions.
	ev := []htcondor.JobEvent{{Type: htcondor.EventSubmit, Cluster: 1, At: 5}}
	if _, err := AnalyzeEvents("x", ev); err == nil {
		t.Fatal("completion-free stream accepted")
	}
}

func TestInstantThroughputSeries(t *testing.T) {
	events := []htcondor.JobEvent{
		{Type: htcondor.EventSubmit, Cluster: 1, Proc: 0, At: 0},
		{Type: htcondor.EventSubmit, Cluster: 1, Proc: 1, At: 0},
		{Type: htcondor.EventExecute, Cluster: 1, Proc: 0, At: 10},
		{Type: htcondor.EventTerminated, Cluster: 1, Proc: 0, At: 60},
		{Type: htcondor.EventExecute, Cluster: 1, Proc: 1, At: 10},
		{Type: htcondor.EventTerminated, Cluster: 1, Proc: 1, At: 120},
	}
	series := InstantThroughputSeries(events, 60)
	if len(series) != 3 {
		t.Fatalf("series %v", series)
	}
	// At t=60s (1 min): 1 job complete → 1 JPM. At t=120s: 2/2min = 1.
	if series[1].V != 1 || series[2].V != 1 {
		t.Fatalf("series %v", series)
	}
	if series[0].V != 0 {
		t.Fatalf("throughput at t=0 should be 0: %v", series[0].V)
	}
}

func TestRunningJobsSeries(t *testing.T) {
	events := []htcondor.JobEvent{
		{Type: htcondor.EventSubmit, Cluster: 1, Proc: 0, At: 0},
		{Type: htcondor.EventExecute, Cluster: 1, Proc: 0, At: 5},
		{Type: htcondor.EventExecute, Cluster: 1, Proc: 1, At: 7},
		{Type: htcondor.EventTerminated, Cluster: 1, Proc: 0, At: 20},
		{Type: htcondor.EventEvicted, Cluster: 1, Proc: 1, At: 25},
	}
	series := RunningJobsSeries(events, 5)
	// t=0:0, t=5:1, t=10:2, t=15:2, t=20:1, t=25:0
	want := []float64{0, 1, 2, 2, 1, 0}
	if len(series) != len(want) {
		t.Fatalf("series %v", series)
	}
	for i, p := range series {
		if p.V != want[i] {
			t.Fatalf("series[%d] = %v, want %v", i, p.V, want[i])
		}
	}
}

func TestSeriesEmptyEvents(t *testing.T) {
	if s := InstantThroughputSeries(nil, 1); s != nil {
		t.Fatal("non-nil series from no events")
	}
	if s := RunningJobsSeries(nil, 1); s != nil {
		t.Fatal("non-nil series from no events")
	}
}

func TestBatchStatsReport(t *testing.T) {
	events := []htcondor.JobEvent{
		{Type: htcondor.EventSubmit, Cluster: 1, Proc: 0, At: 0},
		{Type: htcondor.EventExecute, Cluster: 1, Proc: 0, At: 30},
		{Type: htcondor.EventTerminated, Cluster: 1, Proc: 0, At: 90},
	}
	b, err := AnalyzeEvents("rpt", events)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.Report(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"batch rpt", "runtime", "throughput"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWorkflowSurvivesFaultInjection(t *testing.T) {
	// With per-job failures the DAGMan RETRY + job-level max_retries
	// machinery must still drive the workflow to completion.
	env, err := NewEnv(13, smallPool())
	if err != nil {
		t.Fatal(err)
	}
	failRNG := sim.NewRNG(13)
	env.Pool.SetExecFault(func(string, *htcondor.Job, sim.Time) ospool.ExecFault {
		return ospool.ExecFault{Fail: failRNG.Bool(0.15)}
	})
	cfg := DefaultConfig()
	cfg.Waveforms = 128
	cfg.Stations = 2
	cfg.Name = "faulty"
	w, err := NewWorkflow(cfg, env.Kernel, env.Pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := RunBatch(env, []*Workflow{w}, 96*3600); err != nil {
		t.Fatal(err)
	}
	if !w.Done() || w.Exec.Failed() {
		t.Fatalf("done=%v failed=%v", w.Done(), w.Exec.Failed())
	}
	retries := 0
	for _, j := range w.Schedd.AllJobs() {
		retries += j.Failures
	}
	if retries == 0 {
		t.Fatal("15% failure rate but no job-level retries recorded")
	}
}

func TestWriteArtifactsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Waveforms = 512
	if err := WriteArtifacts(cfg, dir); err != nil {
		t.Fatal(err)
	}
	// The emitted DAG parses with our DAGMan parser.
	df, err := os.Open(filepath.Join(dir, "fdw.dag"))
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	d, err := dagman.Parse(df)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes) != 4 || !d.Nodes["matrices"].Done {
		t.Fatalf("emitted DAG wrong: %d nodes", len(d.Nodes))
	}
	// Every emitted submit file parses, queues the right count, and
	// materializes exactly the jobs the simulator builds for its phase.
	// BaseExecSeconds (jittered per job) and InputKey (the Stash cache
	// key) are simulator-only.
	phases := []struct {
		file  string
		phase Phase
		n     int
	}{
		{"fdw_matrices.sub", PhaseMatrix, 1},
		{"fdw_phase_a.sub", PhaseA, 32}, // 512/16
		{"fdw_phase_b.sub", PhaseB, 1},
		{"fdw_phase_c.sub", PhaseC, 256}, // 512/2
	}
	for _, p := range phases {
		sf, err := os.Open(filepath.Join(dir, p.file))
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := htcondor.ParseSubmit(sf)
		sf.Close()
		if err != nil {
			t.Fatalf("%s: %v", p.file, err)
		}
		if parsed.QueueN != p.n {
			t.Fatalf("%s queues %d jobs, want %d", p.file, parsed.QueueN, p.n)
		}
		got, err := parsed.Materialize(1, cfg.User)
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildJobs(cfg, p.phase, cfg.User, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d materialized jobs, simulator builds %d", p.file, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Executable", g.Executable, w.Executable},
				{"Arguments", g.Arguments, w.Arguments},
				{"RequestCpus", g.RequestCpus, w.RequestCpus},
				{"RequestMemoryMB", g.RequestMemoryMB, w.RequestMemoryMB},
				{"RequestDiskMB", g.RequestDiskMB, w.RequestDiskMB},
				{"Requirements", g.Requirements, w.Requirements},
				{"MaxRetries", g.MaxRetries, w.MaxRetries},
				{"InputBytes", g.InputBytes, w.InputBytes},
				{"OutputBytes", g.OutputBytes, w.OutputBytes},
			} {
				if f.got != f.want {
					t.Fatalf("%s job %d: %s = %v, simulator runs %v", p.file, i, f.name, f.got, f.want)
				}
			}
		}
	}
	// The emitted config parses back to the same values.
	cf, err := os.Open(filepath.Join(dir, "fdw.cfg"))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	got, err := ParseConfig(cf)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("config round trip: %+v vs %+v", got, cfg)
	}
}

// TestRunBatchHorizonErrorNamesState: a batch cut off by its horizon
// says what the queue and pool looked like, not just that it timed out.
func TestRunBatchHorizonErrorNamesState(t *testing.T) {
	env, err := NewEnv(1, smallPool())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Waveforms = 64
	w, err := NewWorkflow(cfg, env.Kernel, env.Pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = RunBatch(env, []*Workflow{w}, 600)
	if err == nil {
		t.Fatal("batch finished within a 600 s horizon")
	}
	for _, want := range []string{"not finished by horizon", "jobs idle=", "running=", "glideins live="} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("horizon error %q lacks %q", err, want)
		}
	}
}

// TestWriteArtifactsRefusesUnparseableQueue: a phase too large for
// ParseSubmit's queue bound fails the emit with the file named, and no
// fdw.dag is left to submit the half-written set.
func TestWriteArtifactsRefusesUnparseableQueue(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Waveforms = 300000 // 150,000 phase C jobs
	err := WriteArtifacts(cfg, dir)
	if err == nil || !strings.Contains(err.Error(), "fdw_phase_c.sub") {
		t.Fatalf("error %v, want one naming fdw_phase_c.sub", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fdw.dag")); !os.IsNotExist(err) {
		t.Fatalf("failed emit left fdw.dag behind (stat: %v)", err)
	}
}

func TestWriteArtifactsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Waveforms = 0
	if err := WriteArtifacts(cfg, t.TempDir()); err == nil {
		t.Fatal("invalid config accepted")
	}
}
