package recovery

import (
	"fmt"
	"math"
	"math/bits"
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
//
// Each job event costs time in proportion to what it changes, not to
// its cluster's size: sibling runtimes are kept sorted, so the
// threshold is one index; an original's flags live in its cluster's
// slab at Job.Proc; and a fresh sibling runtime visits only the
// originals it can arm (running, unarmed, unhedged), in Proc order.

type clusterRef struct {
	schedd  *htcondor.Schedd
	cluster int
}

// hedgeJob is one original's hedging state.
type hedgeJob struct {
	job     *htcondor.Job // nil for a Proc whose submit was never seen
	clone   *htcondor.Job // live speculative clone
	armed   bool          // a straggler check is scheduled
	adopted bool          // completed via AdoptResult
}

// clusterStats is one cluster's hedging state.
type clusterStats struct {
	schedd *htcondor.Schedd
	// jobs is the slab of originals indexed by Job.Proc: the schedd
	// releases a cluster's jobs in Proc order, so Proc order is the
	// order their submit events arrived in.
	jobs     []hedgeJob
	n        int       // originals seen (non-nil jobs entries)
	runtimes []float64 // successful sibling attempt runtimes, ascending
	// unarmed holds the Procs of originals that are running with no
	// armed check and no live clone: exactly those a fresh sibling
	// runtime may arm.
	unarmed procSet
}

// cloneRef locates a live clone's original in its cluster's slab.
type cloneRef struct {
	cs   *clusterStats
	proc int
}

type hedgeState struct {
	clusters map[clusterRef]*clusterStats
	cloneOf  map[*htcondor.Job]cloneRef // live clone → its original
}

func newHedgeState() hedgeState {
	return hedgeState{
		clusters: map[clusterRef]*clusterStats{},
		cloneOf:  map[*htcondor.Job]cloneRef{},
	}
}

// procSet is a set of Procs, iterated in ascending order.
type procSet struct {
	words []uint64
	n     int
}

func (p *procSet) add(i int) {
	w := i >> 6
	for len(p.words) <= w {
		p.words = append(p.words, 0)
	}
	if m := uint64(1) << (i & 63); p.words[w]&m == 0 {
		p.words[w] |= m
		p.n++
	}
}

func (p *procSet) remove(i int) {
	if w := i >> 6; w < len(p.words) {
		if m := uint64(1) << (i & 63); p.words[w]&m != 0 {
			p.words[w] &^= m
			p.n--
		}
	}
}

// insertSorted inserts x into the ascending slice xs.
func insertSorted(xs []float64, x float64) []float64 {
	i := sort.SearchFloat64s(xs, x)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

// sortedQuantile returns the q-quantile of the ascending slice s: its
// element ceil(q·n)−1, clamped to the slice.
func sortedQuantile(s []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// sync puts original i in or out of the unarmed set from its state.
func (cs *clusterStats) sync(i int) {
	h := &cs.jobs[i]
	if h.job.Status == htcondor.Running && !h.armed && h.clone == nil {
		cs.unarmed.add(i)
	} else {
		cs.unarmed.remove(i)
	}
}

// original returns j's cluster and slab index, or nil if j is not a
// tracked original.
func (h *hedgeState) original(s *htcondor.Schedd, j *htcondor.Job) (*clusterStats, int) {
	cs := h.clusters[clusterRef{s, j.Cluster}]
	if cs == nil || j.Proc < 0 || j.Proc >= len(cs.jobs) || cs.jobs[j.Proc].job != j {
		return nil, 0
	}
	return cs, j.Proc
}

// clone reports the original of j if j is a live clone. Clones are
// rare, so the common case does no map lookup.
func (h *hedgeState) clone(j *htcondor.Job) (cloneRef, bool) {
	if len(h.cloneOf) == 0 {
		return cloneRef{}, false
	}
	ref, ok := h.cloneOf[j]
	return ref, ok
}

// track adds a submitted original to its cluster's slab.
func (r *Policy) track(s *htcondor.Schedd, j *htcondor.Job) {
	ref := clusterRef{s, j.Cluster}
	cs := r.hedge.clusters[ref]
	if cs == nil {
		cs = &clusterStats{schedd: s}
		r.hedge.clusters[ref] = cs
	}
	if j.Proc < len(cs.jobs) {
		if r.err == nil {
			r.err = fmt.Errorf("recovery: schedd %s released job %s after proc %d of its cluster; hedging ignores it",
				s.Name, j.ID(), len(cs.jobs)-1)
		}
		return
	}
	for len(cs.jobs) < j.Proc {
		cs.jobs = append(cs.jobs, hedgeJob{}) // a sibling that left while staged
	}
	cs.jobs = append(cs.jobs, hedgeJob{job: j})
	cs.n++
}

// onJobEvent is the hedging listener, subscribed per schedd by Attach.
func (r *Policy) onJobEvent(s *htcondor.Schedd, j *htcondor.Job, ev htcondor.EventType) {
	if ref, ok := r.hedge.clone(j); ok {
		switch ev {
		case htcondor.EventTerminated:
			r.resolveClone(ref, j)
		case htcondor.EventAborted:
			// A clone aborted by someone other than us (we delete the
			// mapping before cancelling): treat as a resolved loss.
			delete(r.hedge.cloneOf, j)
			if h := &ref.cs.jobs[ref.proc]; h.clone == j {
				h.clone = nil
				ref.cs.sync(ref.proc)
			}
		}
		return // clones are not hedge candidates themselves
	}
	if ev == htcondor.EventSubmit {
		r.track(s, j)
		return
	}
	cs, i := r.hedge.original(s, j)
	if cs == nil {
		return
	}
	switch ev {
	case htcondor.EventExecute:
		cs.sync(i)
		r.scheduleCheck(cs, i)
	case htcondor.EventEvicted:
		cs.sync(i)
	case htcondor.EventTerminated:
		r.cancelClone(cs, i)
		cs.sync(i)
		if j.ExitCode == 0 && !cs.jobs[i].adopted {
			cs.runtimes = insertSorted(cs.runtimes, float64(j.EndTime-j.StartTime))
			r.armUnarmed(cs)
		}
	case htcondor.EventAborted:
		r.cancelClone(cs, i)
		cs.sync(i)
	}
}

// armUnarmed arms checks, in Proc order, for the running siblings that
// had none: a fresh sibling runtime may define their threshold. Arming
// order fixes the kernel's tie-breaking sequence numbers.
func (r *Policy) armUnarmed(cs *clusterStats) {
	if cs.unarmed.n == 0 || len(cs.runtimes) < hedgeMinSiblings || cs.n < 2 {
		return
	}
	for w := 0; w < len(cs.unarmed.words) && cs.unarmed.n > 0; w++ {
		for word := cs.unarmed.words[w]; word != 0; word &= word - 1 {
			r.scheduleCheck(cs, w<<6|bits.TrailingZeros64(word))
		}
	}
}

// scheduleCheck arms a straggler check for running original i, once
// enough siblings have finished to define the threshold.
func (r *Policy) scheduleCheck(cs *clusterStats, i int) {
	h := &cs.jobs[i]
	if h.armed || h.clone != nil {
		return
	}
	if len(cs.runtimes) < hedgeMinSiblings || cs.n < 2 {
		return
	}
	threshold := sortedQuantile(cs.runtimes, hedgeQuantile) * hedgeMultiplier
	due := h.job.StartTime + sim.Time(threshold)
	now := r.kernel.Now()
	if due < now {
		due = now
	}
	h.armed = true
	cs.unarmed.remove(i)
	r.kernel.At(due, func() { r.checkStraggler(cs, i) })
}

// checkStraggler fires at the straggler threshold: if the original is
// still running the same attempt past the (possibly updated) threshold,
// hedge it; if the threshold moved out, re-arm.
func (r *Policy) checkStraggler(cs *clusterStats, i int) {
	h := &cs.jobs[i]
	h.armed = false
	cs.sync(i)
	j := h.job
	if j.Status != htcondor.Running || h.clone != nil || len(cs.runtimes) < hedgeMinSiblings {
		return
	}
	threshold := sortedQuantile(cs.runtimes, hedgeQuantile) * hedgeMultiplier
	now := r.kernel.Now()
	if float64(now-j.StartTime) < threshold-1e-9 {
		// Threshold grew (or the attempt restarted): try again later.
		h.armed = true
		cs.unarmed.remove(i)
		r.kernel.At(j.StartTime+sim.Time(threshold), func() { r.checkStraggler(cs, i) })
		return
	}
	r.hedgeNow(cs, i)
}

// hedgeNow submits the speculative clone for straggling original i.
func (r *Policy) hedgeNow(cs *clusterStats, i int) {
	orig := cs.jobs[i].job
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
	r.hedge.cloneOf[clone] = cloneRef{cs, i}
	if _, err := cs.schedd.Submit([]*htcondor.Job{clone}); err != nil {
		// Submission refused (e.g. an injected submit fault): forget the
		// clone; the original keeps running.
		delete(r.hedge.cloneOf, clone)
		r.stats.HedgeSubmitErrors++
		return
	}
	// Submit may have released staged siblings, growing the slab.
	cs.jobs[i].clone = clone
	cs.sync(i)
	r.stats.HedgesSubmitted++
	if r.obs != nil {
		r.obs.Counter("fdw_recovery_hedges_submitted_total").Inc()
	}
}

// resolveClone handles a clone's terminal event: a clean finish while
// the original is still unfinished is a win (graft the result); any
// other ending is a loss.
func (r *Policy) resolveClone(ref cloneRef, clone *htcondor.Job) {
	cs, i := ref.cs, ref.proc
	delete(r.hedge.cloneOf, clone)
	if cs.jobs[i].clone == clone {
		cs.jobs[i].clone = nil
		cs.sync(i)
	}
	orig := cs.jobs[i].job
	if clone.ExitCode == 0 && (orig.Status == htcondor.Running || orig.Status == htcondor.Idle) {
		if orig.Status == htcondor.Running {
			r.pool.CancelClaim(orig)
		}
		cs.jobs[i].adopted = true
		if err := cs.schedd.AdoptResult(orig, 0); err == nil {
			r.stats.HedgeWins++
			if r.obs != nil {
				r.obs.Counter("fdw_recovery_hedge_wins_total").Inc()
			}
			return
		}
		cs.jobs[i].adopted = false
	}
	r.stats.HedgeLosses++
	if r.obs != nil {
		r.obs.Counter("fdw_recovery_hedge_losses_total").Inc()
	}
}

// cancelClone tears down original i's live clone after the original
// reached a terminal state first (the clone lost the race).
func (r *Policy) cancelClone(cs *clusterStats, i int) {
	clone := cs.jobs[i].clone
	if clone == nil {
		return
	}
	cs.jobs[i].clone = nil
	delete(r.hedge.cloneOf, clone)
	switch clone.Status {
	case htcondor.Running:
		r.pool.CancelClaim(clone)
		_ = cs.schedd.AbortRunning(clone)
	case htcondor.Idle:
		_ = cs.schedd.Remove(clone)
	}
	r.stats.HedgeLosses++
	if r.obs != nil {
		r.obs.Counter("fdw_recovery_hedge_losses_total").Inc()
	}
}
