package faults

import (
	"strings"
	"testing"

	"fdw/internal/htcondor"
	"fdw/internal/ospool"
	"fdw/internal/sim"
)

func testPoolConfig() ospool.Config {
	cfg := ospool.DefaultConfig()
	cfg.Sites = []ospool.SiteConfig{
		{Name: "a", MaxSlots: 20, Speed: 1, SpeedSD: 0.05, CpusPer: 4, MemoryMB: 16384},
		{Name: "b", MaxSlots: 20, Speed: 1, SpeedSD: 0.05, CpusPer: 4, MemoryMB: 16384},
	}
	cfg.GlideinRampMean = 60
	cfg.GlideinLifetimeMean = 8 * 3600
	return cfg
}

func makeJobs(n int, retries int, execSecs float64) []*htcondor.Job {
	jobs := make([]*htcondor.Job, n)
	for i := range jobs {
		jobs[i] = &htcondor.Job{
			Owner:           "u",
			RequestCpus:     4,
			RequestMemoryMB: 8192,
			BaseExecSeconds: execSecs,
			MaxRetries:      retries,
		}
	}
	return jobs
}

func TestWindowContains(t *testing.T) {
	w := Window{From: 10, Until: 20}
	for tm, want := range map[sim.Time]bool{9: false, 10: true, 15: true, 19.999: true, 20: false} {
		if got := w.Contains(tm); got != want {
			t.Fatalf("Contains(%v) = %v, want %v", tm, got, want)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	bad := map[string]Plan{
		"outage no site":    {SiteOutages: []SiteOutage{{Window: Window{0, 1}}}},
		"outage empty win":  {SiteOutages: []SiteOutage{{Site: "a", Window: Window{5, 5}}}},
		"outage neg win":    {SiteOutages: []SiteOutage{{Site: "a", Window: Window{-1, 5}}}},
		"blackhole no site": {BlackHoles: []BlackHole{{Window: Window{0, 1}}}},
		"burst p=0":         {FailureBursts: []FailureBurst{{Window: Window{0, 1}, Prob: 0}}},
		"burst p>1":         {FailureBursts: []FailureBurst{{Window: Window{0, 1}, Prob: 1.5}}},
		"transfer p<0":      {TransferFaults: []TransferFault{{Window: Window{0, 1}, Prob: -0.1}}},
		"submit p>1":        {SubmitFaults: []SubmitFault{{Window: Window{0, 1}, Prob: 2}}},
	}
	for name, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		k := sim.NewKernel(1)
		if _, err := New(k, p); err == nil {
			t.Fatalf("%s: New accepted invalid plan", name)
		}
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Fatalf("empty plan rejected: %v", err)
	}
	if !(Plan{}).Empty() {
		t.Fatal("zero plan not Empty")
	}
}

func TestStandardPlansValid(t *testing.T) {
	plans := StandardPlans()
	if len(plans) < 5 {
		t.Fatalf("only %d standard plans", len(plans))
	}
	if plans[0].Name != "baseline" || !plans[0].Empty() {
		t.Fatalf("first plan should be the empty baseline, got %q", plans[0].Name)
	}
	seen := map[string]bool{}
	for _, p := range plans {
		if err := p.Validate(); err != nil {
			t.Fatalf("plan %q invalid: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate plan name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

// runWorkload runs n jobs through a pool built on k and returns its
// schedd after the run drains.
func runWorkload(t *testing.T, k *sim.Kernel, attach func(p *ospool.Pool, s *htcondor.Schedd)) *htcondor.Schedd {
	t.Helper()
	p, err := ospool.New(k, testPoolConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	if attach != nil {
		attach(p, s)
	}
	if _, err := s.Submit(makeJobs(30, 0, 300)); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(48 * 3600); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAttachDoesNotPerturbBaseline is the determinism contract: a plan
// whose faults never fire (unknown site, so every hook is a pure
// predicate) leaves the run byte-for-byte identical to one where the
// injector was constructed but never attached.
func TestAttachDoesNotPerturbBaseline(t *testing.T) {
	plan := Plan{
		Name:        "phantom",
		SiteOutages: []SiteOutage{{Site: "no-such-site", Window: Window{From: 100, Until: 200}}},
	}
	type outcome struct {
		site string
		exit int
		end  sim.Time
	}
	run := func(attachIt bool) ([]outcome, sim.Time) {
		k := sim.NewKernel(99)
		var out []outcome
		s := runWorkload(t, k, func(p *ospool.Pool, s *htcondor.Schedd) {
			inj, err := New(k, plan)
			if err != nil {
				t.Fatal(err)
			}
			if attachIt {
				inj.Attach(p, s)
			}
		})
		for _, j := range s.AllJobs() {
			out = append(out, outcome{j.Site, j.ExitCode, j.EndTime})
		}
		return out, k.Now()
	}
	withOut, withNow := run(true)
	withoutOut, withoutNow := run(false)
	if withNow != withoutNow {
		t.Fatalf("final time diverged: %v vs %v", withNow, withoutNow)
	}
	for i := range withOut {
		if withOut[i] != withoutOut[i] {
			t.Fatalf("job %d diverged: %+v vs %+v", i, withOut[i], withoutOut[i])
		}
	}
}

func TestSiteOutageDrainsAndRelocates(t *testing.T) {
	// Site "a" goes down 15 min into the run and stays down: jobs that
	// start after the outage begins must all run on "b", and the
	// workload still completes.
	plan := Plan{
		Name:        "outage",
		SiteOutages: []SiteOutage{{Site: "a", Window: Window{From: 900, Until: 48 * 3600}}},
	}
	k := sim.NewKernel(7)
	var inj *Injector
	s := runWorkload(t, k, func(p *ospool.Pool, s *htcondor.Schedd) {
		var err error
		if inj, err = New(k, plan); err != nil {
			t.Fatal(err)
		}
		inj.Attach(p, s)
	})
	for _, j := range s.AllJobs() {
		if j.Status != htcondor.Completed {
			t.Fatalf("job %s in state %v", j.ID(), j.Status)
		}
		if j.StartTime >= 900 && strings.HasSuffix(j.Site, ".a") {
			t.Fatalf("job %s started at %v on down site %s", j.ID(), j.StartTime, j.Site)
		}
	}
}

func TestBlackHoleRecoversViaRetries(t *testing.T) {
	// Site "a" is a black hole for the first two hours. The broken site
	// eats attempts much faster than the healthy one finishes them, so
	// jobs need many requeues — but with job-level retries the workload
	// must converge once the window closes.
	plan := Plan{
		Name:       "bh",
		BlackHoles: []BlackHole{{Site: "a", Window: Window{From: 0, Until: 2 * 3600}}},
	}
	k := sim.NewKernel(8)
	p, err := ospool.New(k, testPoolConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	inj, err := New(k, plan)
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(p, s)
	if _, err := s.Submit(makeJobs(20, 500, 300)); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(48 * 3600); err != nil {
		t.Fatal(err)
	}
	for _, j := range s.AllJobs() {
		if j.Status != htcondor.Completed || j.ExitCode != 0 {
			t.Fatalf("job %s status=%v exit=%d", j.ID(), j.Status, j.ExitCode)
		}
		if strings.HasSuffix(j.Site, ".a") && j.EndTime-sim.Time(j.ExecSeconds()) < 2*3600 {
			t.Fatalf("job %s succeeded on the black hole inside the window", j.ID())
		}
	}
	if _, _, evictions := p.Stats(); evictions == 0 {
		t.Fatal("black hole never cost an attempt")
	}
}

func TestSubmitFaultWindow(t *testing.T) {
	// Prob 1 inside the window makes every submission fail
	// deterministically; outside the window service is normal.
	plan := Plan{
		Name:         "submit",
		SubmitFaults: []SubmitFault{{Window: Window{From: 0, Until: 100}, Prob: 1}},
	}
	k := sim.NewKernel(9)
	s := htcondor.NewSchedd("s", k, nil)
	inj, err := New(k, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Attach only needs a pool for the site hooks; gate schedds directly.
	p, err := ospool.New(k, testPoolConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(p, s)
	if _, err := s.Submit(makeJobs(1, 0, 10)); err == nil {
		t.Fatal("submission inside the fault window accepted")
	}
	var lateErr error
	k.At(150, func() { _, lateErr = s.Submit(makeJobs(1, 0, 10)) })
	for k.Step() {
	}
	if lateErr != nil {
		t.Fatalf("submission after the fault window failed: %v", lateErr)
	}
}

func TestEmptyPlanAttachIsNoOp(t *testing.T) {
	k := sim.NewKernel(10)
	p, err := ospool.New(k, testPoolConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	inj, err := New(k, Plan{Name: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(p, s)
	if s.SubmitGate != nil {
		t.Fatal("empty plan installed a submit gate")
	}
}
