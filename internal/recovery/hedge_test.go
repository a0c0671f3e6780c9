package recovery

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"fdw/internal/core"
	"fdw/internal/faults"
	"fdw/internal/htcondor"
	"fdw/internal/ospool"
	"fdw/internal/sim"
)

// hedgePoolConfig is a pool with one pathologically slow single-slot
// site next to a fast one: whichever sibling lands on the slow slot
// becomes a clear straggler.
func hedgePoolConfig() ospool.Config {
	cfg := ospool.DefaultConfig()
	cfg.Sites = []ospool.SiteConfig{
		{Name: "fast", MaxSlots: 8, Speed: 1, CpusPer: 4, MemoryMB: 16384},
		{Name: "slow", MaxSlots: 1, Speed: 12, CpusPer: 4, MemoryMB: 16384},
	}
	cfg.GlideinRampMean = 60
	cfg.GlideinLifetimeMean = 48 * 3600 // no preemptions: isolate hedging
	cfg.ExecJitterSigma = 0.05
	return cfg
}

// TestHedgeRescuesStraggler is the end-to-end hedging path: a sibling
// stuck on a 12× slow slot gets a speculative clone once enough
// siblings finish; the clone wins on a fast slot and its result is
// grafted onto the original, well before the slow attempt would have
// ended. The losing slow attempt's claim is cancelled.
func TestHedgeRescuesStraggler(t *testing.T) {
	k := sim.NewKernel(9)
	p, err := ospool.New(k, hedgePoolConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	r := New(k)
	r.Attach(p, s)

	jobs := make([]*htcondor.Job, 9)
	for i := range jobs {
		jobs[i] = &htcondor.Job{Owner: "u", RequestCpus: 4, RequestMemoryMB: 8192, BaseExecSeconds: 300}
	}
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(48 * 3600); err != nil {
		t.Fatal(err)
	}

	// Every original completed cleanly; hedging resolved every clone it
	// submitted (win or loss), leaving nothing stuck in the queue.
	for _, j := range jobs {
		if j.Status != htcondor.Completed || j.ExitCode != 0 {
			t.Fatalf("original %s status %v exit %d", j.ID(), j.Status, j.ExitCode)
		}
	}
	st := r.Stats()
	if st.HedgesSubmitted == 0 {
		t.Fatalf("no hedge submitted despite a 12x straggler: %+v", st)
	}
	if st.HedgeWins == 0 {
		t.Fatalf("hedge never won against a 12x slow slot: %+v", st)
	}
	if st.HedgeWins+st.HedgeLosses != st.HedgesSubmitted {
		t.Fatalf("unresolved hedges: %+v", st)
	}
	// Job conservation across originals + clones.
	var completed, removed int
	for _, j := range s.AllJobs() {
		switch j.Status {
		case htcondor.Completed:
			completed++
		case htcondor.Removed:
			removed++
		default:
			t.Fatalf("job %s left in state %v", j.ID(), j.Status)
		}
	}
	if len(s.AllJobs()) != len(jobs)+st.HedgesSubmitted-st.HedgeSubmitErrors {
		t.Fatalf("schedd saw %d jobs, want %d originals + %d clones",
			len(s.AllJobs()), len(jobs), st.HedgesSubmitted)
	}
	if completed+removed != len(s.AllJobs()) {
		t.Fatalf("conservation: %d completed + %d removed != %d jobs", completed, removed, len(s.AllJobs()))
	}
	// The rescue must beat the slow attempt's ~3600 s runtime by a wide
	// margin: all originals done well before the un-hedged makespan.
	var latest sim.Time
	for _, j := range jobs {
		if j.EndTime > latest {
			latest = j.EndTime
		}
	}
	if latest >= 3600 {
		t.Fatalf("originals finished at %v, want < 3600 (hedge should beat the slow attempt)", latest)
	}
}

// The hedging listener as it was before the per-cluster slab, kept as
// the spec TestHedgeMatchesReference holds the production listener to.
// Its methods are the old *Policy methods verbatim on refPolicy, whose
// hedge field shadows Policy's; only type names differ.

// refPolicy runs the reference listener on a Policy's kernel, pool,
// counters and breakers.
type refPolicy struct {
	*Policy
	hedge refHedgeState
}

// attachReference is Attach with the reference listener subscribed in
// place of the production one.
func attachReference(r *Policy, p *ospool.Pool, schedds ...*htcondor.Schedd) {
	ref := &refPolicy{Policy: r, hedge: newRefHedgeState()}
	r.pool = p
	p.SetRecovery(r)
	for _, s := range schedds {
		s := s
		s.Subscribe(func(j *htcondor.Job, ev htcondor.EventType) { ref.onJobEvent(s, j, ev) })
	}
}

type refClusterStats struct {
	jobs     []*htcondor.Job
	runtimes []float64 // successful sibling attempt runtimes, append order
}

type refHedgeState struct {
	clusters     map[clusterRef]*refClusterStats
	cloneOf      map[*htcondor.Job]*htcondor.Job // clone → original
	clones       map[*htcondor.Job]*htcondor.Job // original → live clone
	adopted      map[*htcondor.Job]bool          // originals completed via AdoptResult
	pendingCheck map[*htcondor.Job]bool          // originals with a scheduled straggler check
}

func newRefHedgeState() refHedgeState {
	return refHedgeState{
		clusters:     map[clusterRef]*refClusterStats{},
		cloneOf:      map[*htcondor.Job]*htcondor.Job{},
		clones:       map[*htcondor.Job]*htcondor.Job{},
		adopted:      map[*htcondor.Job]bool{},
		pendingCheck: map[*htcondor.Job]bool{},
	}
}

// quantileOf returns the q-quantile of xs (xs is copied, not mutated).
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// onJobEvent is the hedging listener, subscribed per schedd by Attach.
func (r *refPolicy) onJobEvent(s *htcondor.Schedd, j *htcondor.Job, ev htcondor.EventType) {
	switch ev {
	case htcondor.EventSubmit:
		if r.hedge.cloneOf[j] != nil {
			return // clones are not hedge candidates themselves
		}
		ref := clusterRef{s, j.Cluster}
		cs := r.hedge.clusters[ref]
		if cs == nil {
			cs = &refClusterStats{}
			r.hedge.clusters[ref] = cs
		}
		cs.jobs = append(cs.jobs, j)
	case htcondor.EventExecute:
		if r.hedge.cloneOf[j] == nil {
			r.scheduleCheck(s, j)
		}
	case htcondor.EventTerminated:
		if r.hedge.cloneOf[j] != nil {
			r.resolveClone(s, j)
			return
		}
		r.cancelClone(s, j)
		if j.ExitCode == 0 && !r.hedge.adopted[j] {
			if cs := r.hedge.clusters[clusterRef{s, j.Cluster}]; cs != nil {
				cs.runtimes = append(cs.runtimes, float64(j.EndTime-j.StartTime))
				// A fresh sibling runtime may arm checks for still-running
				// siblings that had none scheduled.
				for _, sib := range cs.jobs {
					if sib.Status == htcondor.Running {
						r.scheduleCheck(s, sib)
					}
				}
			}
		}
	case htcondor.EventAborted:
		if r.hedge.cloneOf[j] != nil {
			// A clone aborted by someone other than us (we delete the
			// mapping before cancelling): treat as a resolved loss.
			orig := r.hedge.cloneOf[j]
			delete(r.hedge.cloneOf, j)
			if r.hedge.clones[orig] == j {
				delete(r.hedge.clones, orig)
			}
			return
		}
		r.cancelClone(s, j)
	}
}

// scheduleCheck arms a straggler check for a running original, once
// enough siblings have finished to define the threshold.
func (r *refPolicy) scheduleCheck(s *htcondor.Schedd, j *htcondor.Job) {
	if r.hedge.pendingCheck[j] || r.hedge.clones[j] != nil {
		return
	}
	cs := r.hedge.clusters[clusterRef{s, j.Cluster}]
	if cs == nil || len(cs.runtimes) < hedgeMinSiblings || len(cs.jobs) < 2 {
		return
	}
	threshold := quantileOf(cs.runtimes, hedgeQuantile) * hedgeMultiplier
	due := j.StartTime + sim.Time(threshold)
	now := r.kernel.Now()
	if due < now {
		due = now
	}
	r.hedge.pendingCheck[j] = true
	r.kernel.At(due, func() { r.checkStraggler(s, j) })
}

// checkStraggler fires at the straggler threshold: if the original is
// still running the same attempt past the (possibly updated) threshold,
// hedge it; if the threshold moved out, re-arm.
func (r *refPolicy) checkStraggler(s *htcondor.Schedd, j *htcondor.Job) {
	delete(r.hedge.pendingCheck, j)
	if j.Status != htcondor.Running || r.hedge.clones[j] != nil {
		return
	}
	cs := r.hedge.clusters[clusterRef{s, j.Cluster}]
	if cs == nil || len(cs.runtimes) < hedgeMinSiblings {
		return
	}
	threshold := quantileOf(cs.runtimes, hedgeQuantile) * hedgeMultiplier
	now := r.kernel.Now()
	if float64(now-j.StartTime) < threshold-1e-9 {
		// Threshold grew (or the attempt restarted): try again later.
		r.hedge.pendingCheck[j] = true
		r.kernel.At(j.StartTime+sim.Time(threshold), func() { r.checkStraggler(s, j) })
		return
	}
	r.hedgeNow(s, j)
}

// hedgeNow submits the speculative clone for a straggling original.
func (r *refPolicy) hedgeNow(s *htcondor.Schedd, orig *htcondor.Job) {
	clone := &htcondor.Job{
		Owner:           orig.Owner,
		Executable:      orig.Executable,
		Arguments:       orig.Arguments,
		RequestCpus:     orig.RequestCpus,
		RequestMemoryMB: orig.RequestMemoryMB,
		RequestDiskMB:   orig.RequestDiskMB,
		Requirements:    orig.Requirements,
		Attrs:           orig.Attrs,
		InputBytes:      orig.InputBytes,
		OutputBytes:     orig.OutputBytes,
		InputKey:        orig.InputKey,
		BaseExecSeconds: orig.BaseExecSeconds,
		// A clone gets no retry budget: it exists to race the original,
		// not to grind through failures of its own.
		MaxRetries: 0,
	}
	r.hedge.cloneOf[clone] = orig
	if _, err := s.Submit([]*htcondor.Job{clone}); err != nil {
		// Submission refused (e.g. an injected submit fault): forget the
		// clone; the original keeps running.
		delete(r.hedge.cloneOf, clone)
		r.stats.HedgeSubmitErrors++
		return
	}
	r.hedge.clones[orig] = clone
	r.stats.HedgesSubmitted++
	if r.obs != nil {
		r.obs.Counter("fdw_recovery_hedges_submitted_total").Inc()
	}
}

// resolveClone handles a clone's terminal event: a clean finish while
// the original is still unfinished is a win (graft the result); any
// other ending is a loss.
func (r *refPolicy) resolveClone(s *htcondor.Schedd, clone *htcondor.Job) {
	orig := r.hedge.cloneOf[clone]
	if orig == nil {
		return
	}
	delete(r.hedge.cloneOf, clone)
	if r.hedge.clones[orig] == clone {
		delete(r.hedge.clones, orig)
	}
	if clone.ExitCode == 0 && (orig.Status == htcondor.Running || orig.Status == htcondor.Idle) {
		if orig.Status == htcondor.Running {
			r.pool.CancelClaim(orig)
		}
		r.hedge.adopted[orig] = true
		if err := s.AdoptResult(orig, 0); err == nil {
			r.stats.HedgeWins++
			if r.obs != nil {
				r.obs.Counter("fdw_recovery_hedge_wins_total").Inc()
			}
			return
		}
		delete(r.hedge.adopted, orig)
	}
	r.stats.HedgeLosses++
	if r.obs != nil {
		r.obs.Counter("fdw_recovery_hedge_losses_total").Inc()
	}
}

// cancelClone tears down an original's live clone after the original
// reached a terminal state first (the clone lost the race).
func (r *refPolicy) cancelClone(s *htcondor.Schedd, orig *htcondor.Job) {
	clone := r.hedge.clones[orig]
	if clone == nil {
		return
	}
	delete(r.hedge.clones, orig)
	delete(r.hedge.cloneOf, clone)
	switch clone.Status {
	case htcondor.Running:
		r.pool.CancelClaim(clone)
		_ = s.AbortRunning(clone)
	case htcondor.Idle:
		_ = s.Remove(clone)
	}
	r.stats.HedgeLosses++
	if r.obs != nil {
		r.obs.Counter("fdw_recovery_hedge_losses_total").Inc()
	}
}

// hedgeFiringPoolConfig is the default OSPool site list plus a 12×
// slow site: the standard plans' site windows still apply, and
// siblings landing on a slow slot straggle into hedges that win, lose
// and get cancelled.
func hedgeFiringPoolConfig() ospool.Config {
	cfg := ospool.DefaultConfig()
	cfg.Sites = append(cfg.Sites, ospool.SiteConfig{Name: "slow", MaxSlots: 40, Speed: 12, CpusPer: 4, MemoryMB: 16384})
	return cfg
}

// hedgeOutcome is what a run under a hedging listener leaves behind.
type hedgeOutcome struct {
	log    []byte
	stats  Stats
	wasted float64
	end    sim.Time
}

// runHedgeWorkflow runs a small FDW workflow under plan with the
// recovery policy attached, wired as the chaos campaign wires it; with
// reference the old listener stands in for the production one.
func runHedgeWorkflow(t *testing.T, plan faults.Plan, poolCfg ospool.Config, seed uint64, reference bool) hedgeOutcome {
	t.Helper()
	env, err := core.NewEnv(seed, poolCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Name = "hedge-" + plan.Name
	cfg.Waveforms = 256
	cfg.Seed = seed
	var log bytes.Buffer
	wf, err := core.NewWorkflow(cfg, env.Kernel, env.Pool, &log)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(env.Kernel, plan)
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(env.Pool, wf.Schedd)
	pol := New(env.Kernel)
	if reference {
		attachReference(pol, env.Pool, wf.Schedd)
	} else {
		pol.Attach(env.Pool, wf.Schedd)
	}
	pol.AttachExecutor(wf.Exec)
	if err := core.RunBatch(env, []*core.Workflow{wf}, 1000*3600); err != nil {
		t.Fatalf("%s seed %d: %v", plan.Name, seed, err)
	}
	if err := pol.Err(); err != nil {
		t.Fatalf("%s seed %d: %v", plan.Name, seed, err)
	}
	return hedgeOutcome{log: log.Bytes(), stats: pol.Stats(), wasted: env.Pool.WastedSeconds(), end: env.Kernel.Now()}
}

// firstLineDiff names the first user-log line where got leaves want.
func firstLineDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("%d vs %d lines", len(w), len(g))
}

// TestHedgeMatchesReference holds the production listener to the
// reference on every standard fault plan: the user log byte for byte,
// the policy's counters, the pool's wasted seconds and the final
// clock, which together pin every kernel.At the listener made and its
// tie-breaking order. The default pool hedges nothing at this size, so
// a pool with a slow site covers the clone, adopt and cancel paths.
func TestHedgeMatchesReference(t *testing.T) {
	// Beyond the standard grid, submit faults late in the run refuse
	// some clone submissions, so a refused original is re-armed.
	plans := append(faults.StandardPlans(), faults.Plan{
		Name:         "late-submit-errors",
		SubmitFaults: []faults.SubmitFault{{Window: faults.Window{From: 3600, Until: 48 * 3600}, Prob: 0.3}},
	})
	var fired Stats
	for _, pool := range []struct {
		name string
		cfg  ospool.Config
	}{{"default", ospool.DefaultConfig()}, {"slow-site", hedgeFiringPoolConfig()}} {
		for _, plan := range plans {
			for _, seed := range []uint64{11, 23, 47} {
				want := runHedgeWorkflow(t, plan, pool.cfg, seed, true)
				got := runHedgeWorkflow(t, plan, pool.cfg, seed, false)
				cell := fmt.Sprintf("%s/%s/seed %d", pool.name, plan.Name, seed)
				if !bytes.Equal(want.log, got.log) {
					t.Fatalf("%s: user log differs at %s", cell, firstLineDiff(want.log, got.log))
				}
				if want.stats != got.stats {
					t.Fatalf("%s: stats %+v, reference %+v", cell, got.stats, want.stats)
				}
				if math.Float64bits(want.wasted) != math.Float64bits(got.wasted) || want.end != got.end {
					t.Fatalf("%s: wasted %v end %v, reference wasted %v end %v", cell, got.wasted, got.end, want.wasted, want.end)
				}
				fired.HedgesSubmitted += got.stats.HedgesSubmitted
				fired.HedgeWins += got.stats.HedgeWins
				fired.HedgeLosses += got.stats.HedgeLosses
				fired.HedgeSubmitErrors += got.stats.HedgeSubmitErrors
			}
		}
	}
	if fired.HedgesSubmitted == 0 || fired.HedgeWins == 0 || fired.HedgeLosses == 0 || fired.HedgeSubmitErrors == 0 {
		t.Fatalf("hedge paths not all exercised: %+v", fired)
	}
}

// TestSortedQuantileMatchesQuantileOf checks the incremental form
// against the reference: after each insertion, the sorted runtimes
// give quantileOf's answer at every q, ties included.
func TestSortedQuantileMatchesQuantileOf(t *testing.T) {
	r := sim.NewRNG(5)
	var xs, sorted []float64
	for n := 0; n < 300; n++ {
		x := float64(r.Intn(40)) // many ties
		if n%3 == 0 {
			x += r.Float64()
		}
		xs = append(xs, x)
		sorted = insertSorted(sorted, x)
		if !sort.Float64sAreSorted(sorted) {
			t.Fatalf("n=%d: not sorted: %v", n+1, sorted)
		}
		for _, q := range []float64{0.01, 0.25, 0.5, hedgeQuantile, 0.9, 1} {
			if got, want := sortedQuantile(sorted, q), quantileOf(xs, q); got != want {
				t.Fatalf("n=%d q=%v: got %v, want %v", n+1, q, got, want)
			}
		}
	}
}

// TestHedgeSlabFollowsProc: the slab tolerates a sibling that left
// while staged (its Proc stays a hole) and reports a job released out
// of Proc order as a policy error instead of tracking it.
func TestHedgeSlabFollowsProc(t *testing.T) {
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("s", k, nil)
	s.MaxIdleSubmit = 1
	r := New(k)
	s.Subscribe(func(j *htcondor.Job, ev htcondor.EventType) { r.onJobEvent(s, j, ev) })
	jobs := []*htcondor.Job{{Owner: "u"}, {Owner: "u"}, {Owner: "u"}}
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	// Proc 1 leaves while staged; removing proc 0 releases proc 2.
	if err := s.Remove(jobs[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(jobs[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("hole rejected: %v", err)
	}
	if cs, i := r.hedge.original(s, jobs[2]); cs == nil || i != 2 || cs.n != 2 {
		t.Fatalf("proc 2 not tracked at its Proc: cs %v, i %d", cs, i)
	}
	if cs, _ := r.hedge.original(s, jobs[1]); cs != nil {
		t.Fatal("never-released proc 1 tracked")
	}

	late := &htcondor.Job{Cluster: jobs[2].Cluster, Proc: 1}
	r.onJobEvent(s, late, htcondor.EventSubmit)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), late.ID()) {
		t.Fatalf("out-of-order release: err %v, want one naming %s", err, late.ID())
	}
	if cs, _ := r.hedge.original(s, late); cs != nil {
		t.Fatal("out-of-order job tracked")
	}
}
