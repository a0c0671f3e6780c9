package ospool

import (
	"fmt"
	"testing"

	"fdw/internal/classad"
	"fdw/internal/htcondor"
	"fdw/internal/sim"
)

// This file is the equivalence property test for the matchmaking index:
// negotiateIndexed must produce the exact claim sequence of the retained
// seed negotiator (negotiate_ref_test.go) over randomized pools — mixed
// requirements, multiple owners spread across schedds, retries, pilot
// churn — across kernel seeds and MatchesPerCycle settings, with and
// without a stateful recovery veto in the match path.

// propSites is a deliberately heterogeneous pool: per-site ads differ
// in Cpus, Memory, and name, so requirement expressions carve out
// different site subsets and the per-site match masks are non-trivial.
func propSites() []SiteConfig {
	return []SiteConfig{
		{Name: "alpha", MaxSlots: 30, Speed: 1.00, SpeedSD: 0.10, CpusPer: 4, MemoryMB: 16384},
		{Name: "beta", MaxSlots: 18, Speed: 0.90, SpeedSD: 0.12, CpusPer: 8, MemoryMB: 32768},
		{Name: "gamma", MaxSlots: 12, Speed: 1.10, SpeedSD: 0.08, CpusPer: 2, MemoryMB: 8192},
	}
}

func propConfig(mpc int) Config {
	return Config{
		Sites:               propSites(),
		NegotiationInterval: 30,
		ProvisionInterval:   60,
		MatchesPerCycle:     mpc,
		GlideinRampMean:     180,
		GlideinLifetimeMean: 2 * 3600,
		GlideinIdleTimeout:  900,
		AvailabilityPeriod:  2 * 3600,
		AvailabilityMin:     0.5,
		ExecJitterSigma:     0.2,
	}
}

// propJobs generates n jobs from its own RNG stream (independent of the
// kernel, so both pool variants see an identical workload). Every
// requirement template matches at least one site, so the batch drains.
func propJobs(r *sim.RNG, n int, owner string) []*htcondor.Job {
	jobs := make([]*htcondor.Job, n)
	for i := range jobs {
		j := &htcondor.Job{
			Owner:           owner,
			RequestCpus:     1 + r.Intn(2),
			RequestMemoryMB: 2048 + 2048*r.Intn(3),
			BaseExecSeconds: 120 + 60*float64(r.Intn(5)),
			MaxRetries:      r.Intn(3),
		}
		switch r.Intn(7) {
		case 0:
			// Match anything.
		case 1:
			j.Requirements = `TARGET.GLIDEIN_Site == "beta"`
		case 2:
			j.Requirements = `TARGET.Memory >= 20000` // beta only
		case 3:
			j.Requirements = `TARGET.Cpus >= 4` // alpha, beta
		case 4:
			j.Requirements = `TARGET.GLIDEIN_Site != "gamma" && TARGET.HasSingularity`
		case 5:
			// MY-side attribute reference: the match mask must key on
			// the job's Tier value, not just the expression source.
			j.Requirements = `MY.Tier == "gold" || TARGET.Memory >= 8192`
			tier := "gold"
			if r.Bool(0.5) {
				tier = "silver"
			}
			j.Attrs = classad.Ad{"Tier": classad.String(tier)}
		case 6:
			j.Requirements = `TARGET.Memory >= 4096 && TARGET.Cpus >= 2`
		}
		jobs[i] = j
	}
	return jobs
}

// flakyVeto is a deterministic, time-varying RecoveryHook standing in
// for a circuit breaker: sites sit out windows of simulated time. It is
// stateless across calls at a fixed now (like Breaker.VetoMatch, whose
// open→half-open transition is idempotent per instant), which is the
// contract the index's per-site consultation dedup relies on.
type flakyVeto struct{ consults int }

func (v *flakyVeto) VetoMatch(site string, now sim.Time) bool {
	v.consults++
	return (int64(now)/600+int64(site[0]))%4 == 0
}

func (v *flakyVeto) JobDeadlineSeconds(*htcondor.Job, sim.Time) float64 { return 0 }
func (v *flakyVeto) AttemptStarted(string, *htcondor.Job, sim.Time)     {}
func (v *flakyVeto) AttemptEnded(string, *htcondor.Job, AttemptOutcome, float64, sim.Time) {
}
func (v *flakyVeto) OpenBreakers(sim.Time) []string { return nil }

// propRun executes one randomized workload to completion and returns
// the full claim trace plus terminal statistics.
func propRun(t *testing.T, seed uint64, mpc int, useRef, withVeto bool) (trace []string, started, completed, evictions int) {
	t.Helper()
	k := sim.NewKernel(seed)
	p, err := New(k, propConfig(mpc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if useRef {
		p.negotiator = p.negotiateReference
	}
	p.traceMatch = func(j *htcondor.Job, g *glidein) {
		trace = append(trace, fmt.Sprintf("%.0f %s/%s -> g%d@%s", float64(k.Now()), g.schedd.Name, j.ID(), g.id, g.site.Name))
	}
	if withVeto {
		p.SetRecovery(&flakyVeto{})
	}
	// A 6% per-attempt failure rate exercises retry re-queues mid-run.
	failRNG := sim.NewRNG(seed ^ 0x6a09e667f3bcc908)
	p.SetExecFault(func(string, *htcondor.Job, sim.Time) ExecFault { return ExecFault{Fail: failRNG.Bool(0.06)} })

	// Two schedds, three owners interleaved across both — the shape that
	// exercises the owner-cursor round-robin against mergeInterleaved.
	s1 := htcondor.NewSchedd("dag1", k, nil)
	s2 := htcondor.NewSchedd("dag2", k, nil)
	p.AddSchedd(s1)
	p.AddSchedd(s2)
	jr := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	for _, owner := range []string{"u1", "u2", "u3"} {
		for _, s := range []*htcondor.Schedd{s1, s2} {
			if _, err := s.Submit(propJobs(jr, 60, owner)); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Start()
	if err := p.RunUntilDone(96 * 3600); err != nil {
		t.Fatal(err)
	}
	started, completed, evictions = p.Stats()
	return trace, started, completed, evictions
}

// TestIndexedNegotiatorMatchesReference is the property: over random
// workloads × seeds × MatchesPerCycle × veto on/off, the indexed
// negotiator claims the same (job, glidein) pairs at the same times in
// the same order as the retained seed linear scan.
func TestIndexedNegotiatorMatchesReference(t *testing.T) {
	for _, seed := range []uint64{3, 17, 251} {
		for _, mpc := range []int{7, 60, 500} {
			for _, veto := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/mpc%d/veto%v", seed, mpc, veto)
				t.Run(name, func(t *testing.T) {
					refTrace, rs, rc, re := propRun(t, seed, mpc, true, veto)
					idxTrace, is, ic, ie := propRun(t, seed, mpc, false, veto)
					if rs != is || rc != ic || re != ie {
						t.Fatalf("stats diverge: ref started/completed/evictions %d/%d/%d, indexed %d/%d/%d",
							rs, rc, re, is, ic, ie)
					}
					if len(refTrace) != len(idxTrace) {
						t.Fatalf("trace lengths diverge: ref %d, indexed %d", len(refTrace), len(idxTrace))
					}
					for i := range refTrace {
						if refTrace[i] != idxTrace[i] {
							t.Fatalf("claim %d diverges:\n  ref:     %s\n  indexed: %s", i, refTrace[i], idxTrace[i])
						}
					}
					if rs == 0 {
						t.Fatal("degenerate run: no claims made")
					}
				})
			}
		}
	}
}
