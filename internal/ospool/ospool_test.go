package ospool

import (
	"strings"
	"testing"

	"fdw/internal/htcondor"
	"fdw/internal/sim"
	"fdw/internal/stash"
)

// testConfig is a small, fast pool for unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Sites = []SiteConfig{
		{Name: "a", MaxSlots: 20, Speed: 1, SpeedSD: 0.05, CpusPer: 4, MemoryMB: 16384},
		{Name: "b", MaxSlots: 20, Speed: 1, SpeedSD: 0.05, CpusPer: 4, MemoryMB: 16384},
	}
	cfg.GlideinRampMean = 60
	cfg.GlideinLifetimeMean = 8 * 3600
	return cfg
}

func makeJobs(n int, owner string, execSecs float64) []*htcondor.Job {
	jobs := make([]*htcondor.Job, n)
	for i := range jobs {
		jobs[i] = &htcondor.Job{
			Owner:           owner,
			RequestCpus:     4,
			RequestMemoryMB: 8192,
			BaseExecSeconds: execSecs,
		}
	}
	return jobs
}

func TestPoolRunsWorkloadToCompletion(t *testing.T) {
	k := sim.NewKernel(1)
	p, err := New(k, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	if _, err := s.Submit(makeJobs(50, "u1", 300)); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(48 * 3600); err != nil {
		t.Fatal(err)
	}
	if s.Completed() != 50 {
		t.Fatalf("completed %d, want 50", s.Completed())
	}
	for _, j := range s.AllJobs() {
		if j.Status != htcondor.Completed {
			t.Fatalf("job %s in state %v", j.ID(), j.Status)
		}
		if j.ExecSeconds() <= 0 {
			t.Fatalf("job %s exec %v", j.ID(), j.ExecSeconds())
		}
	}
}

func TestPoolParallelismBeatsSerial(t *testing.T) {
	k := sim.NewKernel(2)
	p, err := New(k, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	const n, exec = 80, 600
	if _, err := s.Submit(makeJobs(n, "u1", exec)); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(48 * 3600); err != nil {
		t.Fatal(err)
	}
	elapsed := float64(k.Now())
	serial := float64(n * exec)
	if elapsed >= serial/4 {
		t.Fatalf("pool took %v s, want well under serial %v s", elapsed, serial)
	}
}

func TestPoolGlideinsRampGradually(t *testing.T) {
	k := sim.NewKernel(3)
	cfg := testConfig()
	cfg.GlideinRampMean = 600
	p, err := New(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	if _, err := s.Submit(makeJobs(40, "u1", 3600)); err != nil {
		t.Fatal(err)
	}
	p.Start()
	k.RunUntil(90)
	early := p.SlotCount()
	peak := early
	stop := k.Ticker(120, 60, func(sim.Time) {
		if n := p.SlotCount(); n > peak {
			peak = n
		}
	})
	k.RunUntil(4 * 3600)
	stop()
	p.Stop()
	k.Run()
	if early >= peak {
		t.Fatalf("no ramp-up: %d slots early, peak %d", early, peak)
	}
}

func TestPoolEvictionRequeuesAndFinishes(t *testing.T) {
	k := sim.NewKernel(4)
	cfg := testConfig()
	cfg.GlideinLifetimeMean = 900 // aggressive pilot churn forces evictions
	p, err := New(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	if _, err := s.Submit(makeJobs(30, "u1", 1200)); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(96 * 3600); err != nil {
		t.Fatal(err)
	}
	_, _, ev := p.Stats()
	if ev == 0 {
		t.Fatal("expected at least one eviction with 15-minute pilots")
	}
	if s.Completed() != 30 {
		t.Fatalf("completed %d, want 30", s.Completed())
	}
}

func TestPoolFairShareSplitsSlots(t *testing.T) {
	k := sim.NewKernel(5)
	cfg := testConfig()
	p, err := New(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := htcondor.NewSchedd("s1", k, nil)
	s2 := htcondor.NewSchedd("s2", k, nil)
	p.AddSchedd(s1)
	p.AddSchedd(s2)
	if _, err := s1.Submit(makeJobs(200, "dag1", 900)); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Submit(makeJobs(200, "dag2", 900)); err != nil {
		t.Fatal(err)
	}
	p.Start()
	// Sample running counts mid-flight.
	var r1max, r2max int
	stop := k.Ticker(600, 300, func(sim.Time) {
		if n := runningJobs(s1); n > r1max {
			r1max = n
		}
		if n := runningJobs(s2); n > r2max {
			r2max = n
		}
	})
	if err := p.RunUntilDone(96 * 3600); err != nil {
		t.Fatal(err)
	}
	stop()
	if r1max == 0 || r2max == 0 {
		t.Fatalf("an owner never ran: %d %d", r1max, r2max)
	}
	// Fair share: neither owner should monopolize (>90%) the pool peak.
	if r1max*10 < r2max || r2max*10 < r1max {
		t.Fatalf("grossly unfair split: %d vs %d", r1max, r2max)
	}
}

func TestPoolRespectsRequirements(t *testing.T) {
	k := sim.NewKernel(6)
	p, err := New(k, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	jobs := makeJobs(2, "u", 100)
	jobs[0].Requirements = `(TARGET.GLIDEIN_Site == "a")`
	jobs[1].Requirements = `(TARGET.NoSuchThing == true)` // unmatchable
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	p.Start()
	k.RunUntil(6 * 3600)
	p.Stop()
	k.Run()
	if jobs[0].Status != htcondor.Completed {
		t.Fatalf("site-pinned job state %v", jobs[0].Status)
	}
	if jobs[0].Site == "" || jobs[0].Site[len(jobs[0].Site)-1] != 'a' {
		t.Fatalf("job ran on %q, want site a", jobs[0].Site)
	}
	if jobs[1].Status != htcondor.Idle {
		t.Fatalf("unmatchable job state %v, want idle forever", jobs[1].Status)
	}
}

func TestPoolStashTransfersExtendRuntime(t *testing.T) {
	run := func(withCache bool) float64 {
		k := sim.NewKernel(7)
		var cache *stash.Cache
		if withCache {
			var err error
			cache, err = stash.New(stash.Config{OriginBps: 10e6, CacheBps: 100e6, LatencyS: 5})
			if err != nil {
				panic(err)
			}
		}
		p, err := New(k, testConfig(), cache)
		if err != nil {
			panic(err)
		}
		s := htcondor.NewSchedd("s", k, nil)
		p.AddSchedd(s)
		jobs := makeJobs(20, "u", 300)
		for _, j := range jobs {
			j.InputBytes = 900e6 // ~900 MB image+GFs
			j.InputKey = "phaseC-inputs"
			j.OutputBytes = 40e6
		}
		if _, err := s.Submit(jobs); err != nil {
			panic(err)
		}
		p.Start()
		if err := p.RunUntilDone(48 * 3600); err != nil {
			panic(err)
		}
		var sum float64
		for _, j := range s.AllJobs() {
			sum += j.ExecSeconds()
		}
		return sum / float64(len(jobs))
	}
	plain := run(false)
	cached := run(true)
	if cached <= plain {
		t.Fatalf("transfers should extend mean job walltime: %v vs %v", cached, plain)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Sites = nil },
		func(c *Config) { c.Sites[0].MaxSlots = 0 },
		func(c *Config) { c.Sites[0].Speed = 0 },
		func(c *Config) { c.NegotiationInterval = 0 },
		func(c *Config) { c.MatchesPerCycle = 0 },
		func(c *Config) { c.AvailabilityMin = 0 },
		func(c *Config) { c.AvailabilityMin = 1.5 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		// Deep-copy sites so mutations don't leak between cases.
		cfg.Sites = append([]SiteConfig(nil), cfg.Sites...)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestAvailabilityBounded(t *testing.T) {
	k := sim.NewKernel(8)
	p, err := New(k, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for tt := sim.Time(0); tt < 48*3600; tt += 137 {
		a := p.availability(tt)
		if a <= 0 || a > 1 {
			t.Fatalf("availability(%v) = %v", tt, a)
		}
	}
}

func TestAvailabilityVaries(t *testing.T) {
	k := sim.NewKernel(9)
	p, err := New(k, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 2.0, -1.0
	for tt := sim.Time(0); tt < 24*3600; tt += 600 {
		a := p.availability(tt)
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if hi-lo < 0.2 {
		t.Fatalf("availability barely varies: [%v, %v]", lo, hi)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed uint64) (sim.Time, int) {
		k := sim.NewKernel(seed)
		p, err := New(k, testConfig(), nil)
		if err != nil {
			panic(err)
		}
		s := htcondor.NewSchedd("s", k, nil)
		p.AddSchedd(s)
		if _, err := s.Submit(makeJobs(40, "u", 450)); err != nil {
			panic(err)
		}
		p.Start()
		if err := p.RunUntilDone(48 * 3600); err != nil {
			panic(err)
		}
		return k.Now(), s.Completed()
	}
	t1, c1 := run(11)
	t2, c2 := run(11)
	if t1 != t2 || c1 != c2 {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", t1, c1, t2, c2)
	}
	t3, _ := run(12)
	if t3 == t1 {
		t.Log("different seeds coincided (unlikely but not fatal)")
	}
}

func TestRunUntilDoneTimesOut(t *testing.T) {
	k := sim.NewKernel(10)
	p, err := New(k, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	jobs := makeJobs(1, "u", 100)
	jobs[0].Requirements = "(TARGET.Imaginary == 42)"
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(3600); err == nil {
		t.Fatal("expected timeout error for unmatchable job")
	}
}

func TestFaultInjectionRetriesJobs(t *testing.T) {
	k := sim.NewKernel(21)
	cfg := testConfig()
	cfg.FailureProb = 0.3
	p, err := New(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	jobs := makeJobs(40, "u", 300)
	for _, j := range jobs {
		j.MaxRetries = 5
	}
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(96 * 3600); err != nil {
		t.Fatal(err)
	}
	var retried int
	for _, j := range jobs {
		if j.Status != htcondor.Completed {
			t.Fatalf("job %s state %v", j.ID(), j.Status)
		}
		if j.ExitCode != 0 {
			t.Fatalf("job %s exhausted retries unexpectedly (exit %d)", j.ID(), j.ExitCode)
		}
		retried += j.Failures
	}
	if retried == 0 {
		t.Fatal("30% failure rate produced zero retries")
	}
}

func TestFaultInjectionExhaustsRetryBudget(t *testing.T) {
	k := sim.NewKernel(22)
	cfg := testConfig()
	cfg.FailureProb = 0.9
	p, err := New(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	jobs := makeJobs(20, "u", 100) // MaxRetries = 0: first failure is final
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(96 * 3600); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, j := range jobs {
		if j.ExitCode != 0 {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("90% failure rate with no retry budget produced zero failed jobs")
	}
}

func TestFailureProbValidation(t *testing.T) {
	cfg := testConfig()
	cfg.FailureProb = 1.0
	if err := cfg.Validate(); err == nil {
		t.Fatal("FailureProb=1 accepted")
	}
	cfg.FailureProb = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative FailureProb accepted")
	}
}

func TestSiteDownHookBlocksProvisioning(t *testing.T) {
	// With site "a" down for the whole run, every job executes on "b".
	k := sim.NewKernel(31)
	p, err := New(k, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.SetSiteDown(func(site string, _ sim.Time) bool { return site == "a" })
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	if _, err := s.Submit(makeJobs(30, "u1", 300)); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(48 * 3600); err != nil {
		t.Fatal(err)
	}
	for _, j := range s.AllJobs() {
		if j.Status != htcondor.Completed {
			t.Fatalf("job %s in state %v", j.ID(), j.Status)
		}
		if strings.HasSuffix(j.Site, ".a") {
			t.Fatalf("job %s ran on down site: %s", j.ID(), j.Site)
		}
	}
}

func TestDrainSiteEvictsAndWorkloadRecovers(t *testing.T) {
	k := sim.NewKernel(32)
	p, err := New(k, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	if _, err := s.Submit(makeJobs(40, "u1", 1800)); err != nil {
		t.Fatal(err)
	}
	drained := 0
	k.At(900, func() { drained = p.DrainSite("a") })
	p.Start()
	if err := p.RunUntilDone(72 * 3600); err != nil {
		t.Fatal(err)
	}
	if drained == 0 {
		t.Fatal("DrainSite found no glideins mid-run")
	}
	if s.Completed() != 40 {
		t.Fatalf("completed %d, want 40 (evicted jobs must requeue)", s.Completed())
	}
}

func TestExecFaultHookOutcomes(t *testing.T) {
	// A transfer fault or black hole fails the attempt; MaxRetries 0
	// means the failure is terminal, so every job completes non-zero.
	for _, mode := range []string{"transfer", "blackhole", "fail"} {
		k := sim.NewKernel(33)
		p, err := New(k, testConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		p.SetExecFault(func(site string, j *htcondor.Job, now sim.Time) ExecFault {
			switch mode {
			case "transfer":
				return ExecFault{TransferFail: true}
			case "blackhole":
				return ExecFault{BlackHole: true}
			default:
				return ExecFault{Fail: true}
			}
		})
		s := htcondor.NewSchedd("s", k, nil)
		p.AddSchedd(s)
		if _, err := s.Submit(makeJobs(10, "u1", 300)); err != nil {
			t.Fatal(err)
		}
		p.Start()
		if err := p.RunUntilDone(48 * 3600); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		for _, j := range s.AllJobs() {
			if j.Status != htcondor.Completed || j.ExitCode == 0 {
				t.Fatalf("%s: job %s status=%v exit=%d, want failed completion",
					mode, j.ID(), j.Status, j.ExitCode)
			}
			// A black hole burns the slot only briefly; a transfer fault
			// does no execution at all.
			if mode == "blackhole" && j.ExecSeconds() > blackHoleExecSeconds+1 {
				t.Fatalf("black-hole job %s ran %v s", j.ID(), j.ExecSeconds())
			}
		}
	}
}

func TestExecFaultRetriesRecover(t *testing.T) {
	// With job-level MaxRetries, attempts that hit a fault window
	// requeue; attempts after the window succeed.
	k := sim.NewKernel(34)
	p, err := New(k, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const window = 2 * 3600
	p.SetExecFault(func(site string, j *htcondor.Job, now sim.Time) ExecFault {
		return ExecFault{Fail: now < window}
	})
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	jobs := makeJobs(10, "u1", 300)
	for _, j := range jobs {
		j.MaxRetries = 100
	}
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(48 * 3600); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Status != htcondor.Completed || j.ExitCode != 0 {
			t.Fatalf("job %s status=%v exit=%d", j.ID(), j.Status, j.ExitCode)
		}
	}
	_, _, evictions := p.Stats()
	if evictions == 0 {
		t.Fatal("no attempts hit the fault window")
	}
}

// RunningCount returns the number of busy glideins.
func (p *Pool) RunningCount() int { return p.busy }

// SlotCount returns the number of live glideins (busy + idle).
func (p *Pool) SlotCount() int { return len(p.live) }

// runningJobs counts a schedd's running jobs.
func runningJobs(s *htcondor.Schedd) int {
	n := 0
	for _, j := range s.AllJobs() {
		if j.Status == htcondor.Running {
			n++
		}
	}
	return n
}
