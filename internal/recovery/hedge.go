package recovery

import (
	"math"
	"sort"

	"fdw/internal/htcondor"
	"fdw/internal/sim"
)

// Straggler hedging watches each schedd's job events. Jobs submitted
// together (one cluster = one DAGMan node) are siblings; once enough
// siblings have completed, any sibling still running past
// hedgeMultiplier × the hedgeQuantile sibling runtime gets a
// speculative clone under a fresh cluster id. The first finisher wins:
// a winning clone's result is grafted onto the original (AdoptResult),
// a losing clone is cancelled (Remove / CancelClaim + AbortRunning).
// DAGMan accounts nodes by cluster id, so clones are invisible to it —
// only the original's terminal event reaches node bookkeeping.

type clusterRef struct {
	schedd  *htcondor.Schedd
	cluster int
}

type clusterStats struct {
	jobs     []*htcondor.Job
	runtimes []float64 // successful sibling attempt runtimes, append order
}

type hedgeState struct {
	clusters     map[clusterRef]*clusterStats
	cloneOf      map[*htcondor.Job]*htcondor.Job // clone → original
	clones       map[*htcondor.Job]*htcondor.Job // original → live clone
	adopted      map[*htcondor.Job]bool          // originals completed via AdoptResult
	pendingCheck map[*htcondor.Job]bool          // originals with a scheduled straggler check
}

func newHedgeState() hedgeState {
	return hedgeState{
		clusters:     map[clusterRef]*clusterStats{},
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
func (r *Policy) onJobEvent(s *htcondor.Schedd, j *htcondor.Job, ev htcondor.EventType) {
	switch ev {
	case htcondor.EventSubmit:
		if r.hedge.cloneOf[j] != nil {
			return // clones are not hedge candidates themselves
		}
		ref := clusterRef{s, j.Cluster}
		cs := r.hedge.clusters[ref]
		if cs == nil {
			cs = &clusterStats{}
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
func (r *Policy) scheduleCheck(s *htcondor.Schedd, j *htcondor.Job) {
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
func (r *Policy) checkStraggler(s *htcondor.Schedd, j *htcondor.Job) {
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
func (r *Policy) hedgeNow(s *htcondor.Schedd, orig *htcondor.Job) {
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
func (r *Policy) resolveClone(s *htcondor.Schedd, clone *htcondor.Job) {
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
func (r *Policy) cancelClone(s *htcondor.Schedd, orig *htcondor.Job) {
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
