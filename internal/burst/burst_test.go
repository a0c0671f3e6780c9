package burst

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"fdw/internal/wtrace"
)

// syntheticTrace builds a batch of nWave waveform jobs submitted in
// waves with long waits, so bursting has something to improve.
// Jobs are submitted every gapS seconds, wait waitS, run execS.
func syntheticTrace(nWave int, gapS, waitS, execS float64) (wtrace.BatchRecord, []wtrace.JobRecord) {
	var jobs []wtrace.JobRecord
	for i := 0; i < nWave; i++ {
		submit := float64(i) * gapS
		start := submit + waitS
		jobs = append(jobs, wtrace.JobRecord{
			ID:     "1." + string(rune('0'+i%10)) + "x",
			Class:  wtrace.ClassWaveform,
			Submit: submit,
			Start:  start,
			End:    start + execS,
		})
	}
	last := jobs[len(jobs)-1]
	batch := wtrace.BatchRecord{
		Name:   "synthetic",
		Submit: 0,
		Start:  jobs[0].Start,
		End:    last.End,
	}
	return batch, jobs
}

func TestControlReplayMatchesTrace(t *testing.T) {
	batch, jobs := syntheticTrace(20, 30, 600, 900)
	res, err := Simulate(batch, jobs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Control {
		t.Fatal("no-policy run not flagged as control")
	}
	if res.BurstedJobs != 0 || res.CostUSD != 0 {
		t.Fatalf("control bursted %d jobs, cost $%v", res.BurstedJobs, res.CostUSD)
	}
	if res.RuntimeSecs != batch.Duration() {
		t.Fatalf("control runtime %v, want %v", res.RuntimeSecs, batch.Duration())
	}
	if res.CompletedOSG != 20 || res.CompletedVDC != 0 {
		t.Fatalf("completions OSG %d VDC %d", res.CompletedOSG, res.CompletedVDC)
	}
	if res.AvgInstantJPM <= 0 || res.MaxInstantJPM < res.AvgInstantJPM {
		t.Fatalf("instant stats: avg %v max %v", res.AvgInstantJPM, res.MaxInstantJPM)
	}
	if res.MinInstantJPM != 0 {
		t.Fatalf("min instant %v, want 0 (before first completion)", res.MinInstantJPM)
	}
}

func TestPolicy1BurstsOnLowThroughput(t *testing.T) {
	batch, jobs := syntheticTrace(40, 60, 1800, 900)
	cfg := DefaultConfig()
	cfg.P1 = &Policy1{ProbeSecs: 10, ThresholdJPM: 34}
	res, err := Simulate(batch, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BurstedJobs == 0 {
		t.Fatal("Policy 1 never bursted despite low throughput")
	}
	if res.BurstedPct > 30.01 {
		t.Fatalf("bursted %.1f%%, cap is 30%%", res.BurstedPct)
	}
	if res.CompletedVDC != res.BurstedJobs {
		t.Fatalf("VDC completions %d != bursted %d", res.CompletedVDC, res.BurstedJobs)
	}
	if res.CostUSD <= 0 || res.VDCMinutes <= 0 {
		t.Fatal("bursting without cost")
	}
	control, err := Simulate(batch, jobs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgInstantJPM <= control.AvgInstantJPM {
		t.Fatalf("bursting AIT %v <= control %v", res.AvgInstantJPM, control.AvgInstantJPM)
	}
	if res.RuntimeSecs > control.RuntimeSecs {
		t.Fatalf("bursting runtime %v > control %v", res.RuntimeSecs, control.RuntimeSecs)
	}
}

func TestPolicy1FasterProbeBurstsMore(t *testing.T) {
	batch, jobs := syntheticTrace(60, 60, 1800, 900)
	burstsAt := func(probe float64) int {
		cfg := DefaultConfig()
		cfg.P1 = &Policy1{ProbeSecs: probe, ThresholdJPM: 34}
		res, err := Simulate(batch, jobs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.BurstedJobs
	}
	fast := burstsAt(1)
	slow := burstsAt(120)
	if fast < slow {
		t.Fatalf("probe 1s bursted %d, probe 120s bursted %d; want fast >= slow", fast, slow)
	}
}

func TestPolicy2BurstsLongQueuedJobs(t *testing.T) {
	// All jobs submitted at once; long waits (2h+) before starting.
	var jobs []wtrace.JobRecord
	for i := 0; i < 10; i++ {
		start := 7200 + float64(i)*600
		jobs = append(jobs, wtrace.JobRecord{
			ID: "1.x", Class: wtrace.ClassWaveform,
			Submit: 0, Start: start, End: start + 900,
		})
	}
	batch := wtrace.BatchRecord{Name: "q", Submit: 0, Start: 7200, End: jobs[9].End}
	cfg := DefaultConfig()
	cfg.P2 = &Policy2{MaxQueueSecs: 90 * 60}
	res, err := Simulate(batch, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BurstedJobs == 0 {
		t.Fatal("Policy 2 never bursted 2-hour-queued jobs")
	}
	if res.BurstedJobs > 3 {
		t.Fatalf("bursted %d jobs, cap 30%% of 10", res.BurstedJobs)
	}
}

func TestPolicy2ShorterQueueTimeBurstsMore(t *testing.T) {
	var jobs []wtrace.JobRecord
	for i := 0; i < 40; i++ {
		start := 5400 + float64(i)*900 // waits from 90 min up
		jobs = append(jobs, wtrace.JobRecord{
			ID: "1.x", Class: wtrace.ClassWaveform,
			Submit: 0, Start: start, End: start + 900,
		})
	}
	batch := wtrace.BatchRecord{Name: "q", Submit: 0, Start: 5400, End: jobs[39].End}
	burstsAt := func(maxQ float64) int {
		cfg := DefaultConfig()
		cfg.P2 = &Policy2{MaxQueueSecs: maxQ}
		res, err := Simulate(batch, jobs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.BurstedJobs
	}
	at90 := burstsAt(90 * 60)
	at120 := burstsAt(120 * 60)
	if at90 < at120 {
		t.Fatalf("90-min cap bursted %d, 120-min %d; want 90 >= 120", at90, at120)
	}
}

func TestPolicy3BurstsOnSubmissionGap(t *testing.T) {
	// Two submission bursts separated by a long gap.
	var jobs []wtrace.JobRecord
	for i := 0; i < 5; i++ {
		jobs = append(jobs, wtrace.JobRecord{
			ID: "1.a", Class: wtrace.ClassWaveform,
			Submit: float64(i), Start: 100 + float64(i), End: 1000 + float64(i),
		})
	}
	for i := 0; i < 5; i++ {
		s := 7200 + float64(i)
		jobs = append(jobs, wtrace.JobRecord{
			ID: "2.a", Class: wtrace.ClassWaveform,
			Submit: s, Start: s + 100, End: s + 1000,
		})
	}
	batch := wtrace.BatchRecord{Name: "g", Submit: 0, Start: 100, End: 8200 + 4}
	cfg := DefaultConfig()
	cfg.P3 = &Policy3{MaxGapSecs: 1800, ProbeSecs: 60}
	res, err := Simulate(batch, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BurstedJobs == 0 {
		t.Fatal("Policy 3 never bursted during a 2-hour submission gap")
	}
}

func TestGFJobsNeverBursted(t *testing.T) {
	jobs := []wtrace.JobRecord{
		{ID: "1.0", Class: wtrace.ClassGF, Submit: 0, Start: 7200, End: 14400},
		{ID: "1.1", Class: wtrace.ClassWaveform, Submit: 0, Start: 7200, End: 8100},
	}
	batch := wtrace.BatchRecord{Name: "gf", Submit: 0, Start: 7200, End: 14400}
	cfg := DefaultConfig()
	cfg.P2 = &Policy2{MaxQueueSecs: 600}
	res, err := Simulate(batch, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Only the waveform job is burstable.
	if res.BurstedJobs > 1 {
		t.Fatalf("bursted %d jobs; the GF job must stay on OSG", res.BurstedJobs)
	}
}

func TestBurstCapRespected(t *testing.T) {
	batch, jobs := syntheticTrace(100, 30, 3600, 900)
	cfg := DefaultConfig()
	cfg.P1 = &Policy1{ProbeSecs: 1, ThresholdJPM: 1000} // always below threshold
	cfg.P2 = &Policy2{MaxQueueSecs: 1}
	res, err := Simulate(batch, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BurstedJobs > 30 {
		t.Fatalf("bursted %d of 100, cap is 30", res.BurstedJobs)
	}
}

func TestCostFormula(t *testing.T) {
	batch, jobs := syntheticTrace(20, 30, 3600, 900)
	cfg := DefaultConfig()
	cfg.P1 = &Policy1{ProbeSecs: 1, ThresholdJPM: 1000}
	res, err := Simulate(batch, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each bursted waveform job consumes 144 VDC seconds.
	wantMinutes := float64(res.BurstedJobs) * DefaultWaveformVDCSecs / 60
	if diff := res.VDCMinutes - wantMinutes; diff < -0.2 || diff > 0.2 {
		t.Fatalf("VDC minutes %v, want ≈%v", res.VDCMinutes, wantMinutes)
	}
	wantCost := wantMinutes * DefaultCostPerMinute
	if diff := res.CostUSD - wantCost; diff < -0.01 || diff > 0.01 {
		t.Fatalf("cost %v, want ≈%v", res.CostUSD, wantCost)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.RuptureVDCSecs = 0 },
		func(c *Config) { c.WaveformVDCSecs = -1 },
		func(c *Config) { c.CostPerMinute = -0.1 },
		func(c *Config) { c.MaxBurstFraction = 1.5 },
		func(c *Config) { c.P1 = &Policy1{ProbeSecs: 0, ThresholdJPM: 34} },
		func(c *Config) { c.P2 = &Policy2{} },
		func(c *Config) { c.P3 = &Policy3{MaxGapSecs: 10} },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestSimulateInputValidation(t *testing.T) {
	batch, jobs := syntheticTrace(3, 10, 10, 10)
	if _, err := Simulate(batch, nil, DefaultConfig()); err == nil {
		t.Fatal("empty trace accepted")
	}
	badBatch := batch
	badBatch.End = -1
	if _, err := Simulate(badBatch, jobs, DefaultConfig()); err == nil {
		t.Fatal("invalid batch accepted")
	}
	early := jobs
	early[0].Submit = -100
	if _, err := Simulate(batch, early, DefaultConfig()); err == nil {
		t.Fatal("job before batch accepted")
	}
	never := []wtrace.JobRecord{{ID: "x", Class: wtrace.ClassWaveform, Submit: 0, Start: -1, End: -1}}
	if _, err := Simulate(batch, never, DefaultConfig()); err == nil {
		t.Fatal("trace with no finishable jobs accepted")
	}
}

// TestSimulateRejectsHostileTimes: a NaN time passes every ordering
// check, and past 2^53 the replay clock's t++ rounds back to t, so
// both must be errors, not a NaN result or a replay that never returns.
func TestSimulateRejectsHostileTimes(t *testing.T) {
	batch, jobs := syntheticTrace(3, 10, 10, 10)
	batch.Submit = math.NaN()
	if res, err := Simulate(batch, jobs, DefaultConfig()); err == nil {
		t.Fatalf("NaN batch submission accepted: runtime %v", res.RuntimeSecs)
	}
	const at = 1 << 54
	batch = wtrace.BatchRecord{Name: "far", Submit: at, Start: at, End: at + 400}
	jobs = []wtrace.JobRecord{{ID: "1.0", Class: wtrace.ClassWaveform, Submit: at + 4, Start: at + 4, End: at + 400}}
	done := make(chan error, 1)
	go func(batch wtrace.BatchRecord, jobs []wtrace.JobRecord) {
		_, err := Simulate(batch, jobs, DefaultConfig())
		done <- err
	}(batch, jobs)
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "submit time 1.8014398509481984e+16") {
			t.Fatalf("got %v, want an error naming the batch submit time", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Simulate did not return within 5 s")
	}
	// Job times are checked as well, just below the horizon's bound.
	batch = wtrace.BatchRecord{Name: "near", Submit: 0, Start: 0, End: 10}
	jobs = []wtrace.JobRecord{{ID: "2.0", Class: wtrace.ClassWaveform, Submit: 0, Start: 0, End: 1<<53 - 86400}}
	if _, err := Simulate(batch, jobs, DefaultConfig()); err == nil || !strings.Contains(err.Error(), "job 2.0 end") {
		t.Fatalf("got %v, want an error naming job 2.0's end time", err)
	}
}

func TestSeriesCSV(t *testing.T) {
	batch, jobs := syntheticTrace(5, 10, 60, 120)
	res, err := Simulate(batch, jobs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.InstantSeries)+1 {
		t.Fatalf("%d CSV lines for %d samples", len(lines), len(res.InstantSeries))
	}
	if lines[0] != "second,instant_jpm" {
		t.Fatalf("header %q", lines[0])
	}
}

func TestReportContainsKeyFields(t *testing.T) {
	batch, jobs := syntheticTrace(5, 10, 60, 120)
	res, err := Simulate(batch, jobs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Report(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"control", "runtime", "VDC usage", "simulated cost"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, buf.String())
		}
	}
}

func TestVDCActivePctBounded(t *testing.T) {
	batch, jobs := syntheticTrace(30, 60, 1800, 900)
	cfg := DefaultConfig()
	cfg.P1 = &Policy1{ProbeSecs: 1, ThresholdJPM: 34}
	res, err := Simulate(batch, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.VDCActivePct < 0 || res.VDCActivePct > 100 {
		t.Fatalf("VDC active %v%%", res.VDCActivePct)
	}
	if res.BurstedJobs > 0 && res.VDCActivePct == 0 {
		t.Fatal("bursted jobs but zero VDC activity")
	}
}

func TestElasticPolicyScalesToDeficit(t *testing.T) {
	batch, jobs := syntheticTrace(80, 60, 1800, 900)
	cfg := DefaultConfig()
	cfg.MaxBurstFraction = 1.0
	cfg.Elastic = &ElasticPolicy{TargetJPM: 10, ProbeSecs: 30, MaxPerProbe: 5}
	res, err := Simulate(batch, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Control {
		t.Fatal("elastic run flagged as control")
	}
	if res.BurstedJobs == 0 {
		t.Fatal("elastic policy never bursted below target")
	}
	control, err := Simulate(batch, jobs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgInstantJPM <= control.AvgInstantJPM {
		t.Fatalf("elastic AIT %v <= control %v", res.AvgInstantJPM, control.AvgInstantJPM)
	}
}

func TestElasticBeatsSingleBurstPolicy1AtSameProbe(t *testing.T) {
	// With a large deficit, the elastic policy (up to 5 bursts/probe)
	// should move throughput at least as much as Policy 1 (1/probe).
	batch, jobs := syntheticTrace(100, 60, 3600, 900)
	p1 := DefaultConfig()
	p1.MaxBurstFraction = 1.0
	p1.P1 = &Policy1{ProbeSecs: 30, ThresholdJPM: 10}
	r1, err := Simulate(batch, jobs, p1)
	if err != nil {
		t.Fatal(err)
	}
	el := DefaultConfig()
	el.MaxBurstFraction = 1.0
	el.Elastic = &ElasticPolicy{TargetJPM: 10, ProbeSecs: 30, MaxPerProbe: 5}
	re, err := Simulate(batch, jobs, el)
	if err != nil {
		t.Fatal(err)
	}
	if re.AvgInstantJPM < r1.AvgInstantJPM {
		t.Fatalf("elastic AIT %v < policy-1 AIT %v", re.AvgInstantJPM, r1.AvgInstantJPM)
	}
}

func TestElasticValidation(t *testing.T) {
	for _, e := range []ElasticPolicy{
		{TargetJPM: 0, ProbeSecs: 30, MaxPerProbe: 5},
		{TargetJPM: 10, ProbeSecs: 0, MaxPerProbe: 5},
		{TargetJPM: 10, ProbeSecs: 30, MaxPerProbe: 0},
	} {
		cfg := DefaultConfig()
		e := e
		cfg.Elastic = &e
		if err := cfg.Validate(); err == nil {
			t.Fatalf("invalid elastic policy accepted: %+v", e)
		}
	}
}

func TestSimulationDeterministic(t *testing.T) {
	batch, jobs := syntheticTrace(50, 60, 1800, 900)
	cfg := DefaultConfig()
	cfg.P1 = &Policy1{ProbeSecs: 5, ThresholdJPM: 34}
	a, err := Simulate(batch, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(batch, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgInstantJPM != b.AvgInstantJPM || a.BurstedJobs != b.BurstedJobs ||
		a.RuntimeSecs != b.RuntimeSecs || a.CostUSD != b.CostUSD {
		t.Fatal("replay is not deterministic")
	}
}

func TestVDCUsagePctDefinition(t *testing.T) {
	batch, jobs := syntheticTrace(20, 30, 3600, 900)
	cfg := DefaultConfig()
	cfg.MaxBurstFraction = 1.0
	cfg.P1 = &Policy1{ProbeSecs: 1, ThresholdJPM: 1000}
	res, err := Simulate(batch, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(res.CompletedVDC) / float64(res.CompletedVDC+res.CompletedOSG) * 100
	if res.VDCUsagePct != want {
		t.Fatalf("usage %v, want %v", res.VDCUsagePct, want)
	}
}
