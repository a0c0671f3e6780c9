package ospool

import (
	"strings"
	"testing"

	"fdw/internal/htcondor"
	"fdw/internal/sim"
	"fdw/internal/stash"
)

// stubHook is a minimal RecoveryHook for exercising the pool seam
// without importing internal/recovery (which would cycle).
type stubHook struct {
	veto     func(site string, now sim.Time) bool
	deadline func(j *htcondor.Job, now sim.Time) float64
	open     []string

	started int
	ended   []AttemptOutcome
}

func (h *stubHook) VetoMatch(site string, now sim.Time) bool {
	if h.veto == nil {
		return false
	}
	return h.veto(site, now)
}

func (h *stubHook) JobDeadlineSeconds(j *htcondor.Job, now sim.Time) float64 {
	if h.deadline == nil {
		return 0
	}
	return h.deadline(j, now)
}

func (h *stubHook) AttemptStarted(site string, j *htcondor.Job, now sim.Time) { h.started++ }

func (h *stubHook) AttemptEnded(site string, j *htcondor.Job, outcome AttemptOutcome, ran float64, now sim.Time) {
	h.ended = append(h.ended, outcome)
}

func (h *stubHook) OpenBreakers(now sim.Time) []string { return h.open }

// TestTransferFailDoesNotWarmCache is the warm-on-failure regression:
// an attempt killed by an injected TransferFail must leave the stash
// cache cold, so the retry pays origin bandwidth again. Against the
// pre-fix code (TransferSeconds warming at fetch time) the retry
// counts as a hit and this test fails.
func TestTransferFailDoesNotWarmCache(t *testing.T) {
	k := sim.NewKernel(41)
	cache, err := stash.New(stash.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(k, testConfig(), cache)
	if err != nil {
		t.Fatal(err)
	}
	attempts := 0
	p.SetExecFault(func(site string, j *htcondor.Job, now sim.Time) ExecFault {
		attempts++
		return ExecFault{TransferFail: attempts == 1}
	})
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	jobs := makeJobs(1, "u", 300)
	jobs[0].MaxRetries = 3
	jobs[0].InputBytes = 1 << 30
	jobs[0].InputKey = "gf.mseed"
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(48 * 3600); err != nil {
		t.Fatal(err)
	}
	if jobs[0].Status != htcondor.Completed || jobs[0].ExitCode != 0 {
		t.Fatalf("job status=%v exit=%d", jobs[0].Status, jobs[0].ExitCode)
	}
	hits, misses := cache.Stats()
	if hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2: the aborted transfer must not warm the cache", hits, misses)
	}
}

// TestTransferSuccessWarmsCache is the committed counterpart: two jobs
// sharing an input key at the same site — the second fetch hits.
func TestTransferSuccessWarmsCache(t *testing.T) {
	k := sim.NewKernel(42)
	cache, err := stash.New(stash.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Sites = cfg.Sites[:1] // one site, so the key is shared for sure
	p, err := New(k, cfg, cache)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	jobs := makeJobs(8, "u", 300)
	for _, j := range jobs {
		j.InputBytes = 1 << 28
		j.InputKey = "shared"
	}
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(48 * 3600); err != nil {
		t.Fatal(err)
	}
	// Exactly one origin fetch; every later delivery (including any
	// re-claim after a pilot eviction) hits the warmed cache.
	hits, misses := cache.Stats()
	if misses != 1 || hits < 7 {
		t.Fatalf("hits=%d misses=%d, want 1 miss and >=7 hits: successful deliveries must warm the cache", hits, misses)
	}
}

// TestGlideinIdleRetirementBoundary pins the strict-> boundary: a pilot
// idle for exactly GlideinIdleTimeout survives the provisioning pass;
// one second longer retires it.
func TestGlideinIdleRetirementBoundary(t *testing.T) {
	k := sim.NewKernel(43)
	cfg := testConfig()
	cfg.GlideinIdleTimeout = 900
	p, err := New(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := &glidein{id: p.nextID, site: p.sites[0].cfg, siteIdx: 0, ad: p.sites[0].ad, idleAt: 0, expire: 1 << 30}
	p.nextID++
	p.live[g.id] = g
	p.sites[0].liveCount++
	p.addFree(g)

	k.At(900, func() {
		p.provision()
		if len(p.live) != 1 {
			t.Errorf("pilot idle for exactly the timeout was retired (now-idleAt == timeout must survive)")
		}
	})
	k.At(901, func() {
		p.provision()
		if len(p.live) != 0 {
			t.Errorf("pilot idle past the timeout was not retired")
		}
	})
	for k.Step() {
	}
}

// TestRecoveryHookVetoBlocksSite mirrors the SiteDown test through the
// recovery seam: with site "a" vetoed, every job executes on "b".
func TestRecoveryHookVetoBlocksSite(t *testing.T) {
	k := sim.NewKernel(44)
	p, err := New(k, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hook := &stubHook{veto: func(site string, _ sim.Time) bool { return site == "a" }}
	p.SetRecovery(hook)
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	if _, err := s.Submit(makeJobs(20, "u1", 300)); err != nil {
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
			t.Fatalf("job %s ran on vetoed site: %s", j.ID(), j.Site)
		}
	}
	if hook.started == 0 || len(hook.ended) == 0 {
		t.Fatal("recovery hook saw no attempts")
	}
}

// TestRecoveryHookDeadlineEvicts gives the first attempt an impossible
// wall-clock budget: the pool must evict it at the deadline (without
// consuming max_retries) and let a later, unlimited attempt finish.
func TestRecoveryHookDeadlineEvicts(t *testing.T) {
	k := sim.NewKernel(45)
	p, err := New(k, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	hook := &stubHook{deadline: func(j *htcondor.Job, _ sim.Time) float64 {
		calls++
		if calls == 1 {
			return 50 // well under the ~300 s attempt
		}
		return 0
	}}
	p.SetRecovery(hook)
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	jobs := makeJobs(1, "u", 300)
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(48 * 3600); err != nil {
		t.Fatal(err)
	}
	if jobs[0].Status != htcondor.Completed || jobs[0].ExitCode != 0 {
		t.Fatalf("job status=%v exit=%d", jobs[0].Status, jobs[0].ExitCode)
	}
	if jobs[0].Failures != 0 {
		t.Fatalf("deadline eviction consumed max_retries budget (failures %d)", jobs[0].Failures)
	}
	var sawDeadline bool
	for _, o := range hook.ended {
		if o == AttemptDeadline {
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatalf("no AttemptDeadline outcome reported: %v", hook.ended)
	}
	if p.WastedSeconds() < 50 {
		t.Fatalf("wasted seconds %v, want >= the 50 s deadline", p.WastedSeconds())
	}
	_, _, evictions := p.Stats()
	if evictions == 0 {
		t.Fatal("deadline eviction not counted")
	}
}

// TestCancelClaimFreesSlot cancels a running claim mid-flight: the
// glidein goes idle, the pending completion event is dead, and the job
// can be finalized by the caller (AbortRunning) so the queue drains.
func TestCancelClaimFreesSlot(t *testing.T) {
	k := sim.NewKernel(46)
	p, err := New(k, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	jobs := makeJobs(1, "u", 3600)
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	p.Start()
	for jobs[0].Status != htcondor.Running && k.Step() {
	}
	if jobs[0].Status != htcondor.Running {
		t.Fatal("job never started")
	}
	// Cancel mid-attempt (100 s in) so the claim has accrued slot time.
	k.At(k.Now()+100, func() {
		if !p.CancelClaim(jobs[0]) {
			t.Error("CancelClaim found no claim for the running job")
		}
		if p.RunningCount() != 0 {
			t.Error("glidein still busy after CancelClaim")
		}
		if p.CancelClaim(jobs[0]) {
			t.Error("second CancelClaim should find nothing")
		}
		if err := s.AbortRunning(jobs[0]); err != nil {
			t.Error(err)
		}
	})
	if err := p.RunUntilDone(48 * 3600); err != nil {
		t.Fatal(err)
	}
	if jobs[0].Status != htcondor.Removed {
		t.Fatalf("job status %v, want removed", jobs[0].Status)
	}
	if p.WastedSeconds() <= 0 {
		t.Fatal("cancelled claim counted no wasted slot time")
	}
}

// TestHorizonTimeoutDiagnostics checks the enriched RunUntilDone error:
// queue counts, glidein counts, and open breakers must all be readable
// from the error string alone.
func TestHorizonTimeoutDiagnostics(t *testing.T) {
	k := sim.NewKernel(47)
	p, err := New(k, testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p.SetRecovery(&stubHook{open: []string{"a", "b"}})
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	jobs := makeJobs(1, "u", 100)
	jobs[0].Requirements = "(TARGET.Imaginary == 42)"
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	p.Start()
	err = p.RunUntilDone(3600)
	if err == nil {
		t.Fatal("expected timeout error for unmatchable job")
	}
	for _, want := range []string{"idle=1", "running=0", "glideins live=", "open breakers=[a b]"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("timeout error %q missing %q", err, want)
		}
	}
}
