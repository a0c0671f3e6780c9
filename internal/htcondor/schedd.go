package htcondor

import (
	"fmt"
	"slices"
	"sort"

	"fdw/internal/obs"
	"fdw/internal/sim"
)

// Listener observes job state transitions (DAGMan subscribes to learn
// when its node jobs finish).
type Listener func(j *Job, ev EventType)

// Schedd is the submit-side job queue: it accepts jobs, hands idle jobs
// to a negotiator, and records lifecycle events in the user log.
type Schedd struct {
	Name string

	kernel      *sim.Kernel
	log         *UserLog
	nextCluster int
	staged      []*Job // accepted but not yet submitted to the queue
	// ownerQ holds the idle jobs, one tombstoned FIFO per owner for the
	// negotiator's fair-share iteration, so MarkRunning is O(1) at any
	// queue depth; idle counts them across owners.
	ownerQ map[string]*jobFIFO
	idle   int
	all    []*Job

	listeners []Listener

	// MaxIdleSubmit is DAGMan's submission throttle
	// (DAGMAN_MAX_JOBS_IDLE): jobs beyond this many idle stay *staged* —
	// accepted by DAGMan but not yet submitted to the queue (no 000
	// event) — and are released as idle jobs drain. The paper's bursting
	// policies act on exactly these "unsubmitted" jobs. 0 = unlimited.
	MaxIdleSubmit int

	// SubmitGate, if set, is consulted with the full job slice after
	// validation but before Submit mutates anything; a non-nil error
	// rejects the whole submission and leaves the queue and the jobs
	// untouched. The fault engine (internal/faults) uses it to inject
	// schedd submit errors, which DAGMan handles as node failures.
	SubmitGate func(jobs []*Job) error

	completed int
	removed   int

	obs   *obs.Registry
	met   scheddMetrics
	spans map[*Job]*obs.Span
}

// scheddMetrics holds pre-resolved instrument handles so the event hot
// path does no per-call name/label string assembly (obs lookups build a
// label-pair key on every call; at 10⁶ jobs that is the dominant
// allocation). Populated by SetObs; zero when observability is off.
type scheddMetrics struct {
	idleJobs   *obs.Gauge
	stagedJobs *obs.Gauge
	waitSecs   *obs.Histogram
	execSecs   *obs.Histogram
	rejected   *obs.Counter
	events     map[EventType]*obs.Counter
}

// NewSchedd returns a schedd writing events to log (log may be nil).
func NewSchedd(name string, k *sim.Kernel, log *UserLog) *Schedd {
	if log == nil {
		log = NewUserLog(nil)
	}
	return &Schedd{
		Name:        name,
		kernel:      k,
		log:         log,
		nextCluster: 1,
		ownerQ:      map[string]*jobFIFO{},
	}
}

// Log exposes the schedd's user log.
func (s *Schedd) Log() *UserLog { return s.log }

// SetObs attaches a metrics registry (nil is fine: all instrumentation
// becomes no-ops). Observability only records transitions the schedd
// already made — it never influences scheduling. Instrument handles are
// resolved once here rather than per event.
func (s *Schedd) SetObs(r *obs.Registry) {
	s.obs = r
	if r == nil {
		s.met = scheddMetrics{}
		return
	}
	s.met = scheddMetrics{
		idleJobs:   r.Gauge("fdw_schedd_idle_jobs", "schedd", s.Name),
		stagedJobs: r.Gauge("fdw_schedd_staged_jobs", "schedd", s.Name),
		waitSecs:   r.Histogram("fdw_schedd_wait_seconds", "schedd", s.Name),
		execSecs:   r.Histogram("fdw_schedd_exec_seconds", "schedd", s.Name),
		rejected:   r.Counter("fdw_schedd_submit_rejected_total", "schedd", s.Name),
		events:     map[EventType]*obs.Counter{},
	}
	if s.spans == nil {
		s.spans = map[*Job]*obs.Span{}
	}
}

// JobSpan returns the lifecycle span opened for a submitted job (nil if
// the registry records no spans or the job predates SetObs). The pool
// uses it to annotate transfer/execute stages it alone knows the
// durations of.
func (s *Schedd) JobSpan(j *Job) *obs.Span { return s.spans[j] }

// queueGauges refreshes the queue-depth gauges after any queue change.
func (s *Schedd) queueGauges() {
	if s.obs == nil {
		return
	}
	s.met.idleJobs.Set(float64(s.idle))
	s.met.stagedJobs.Set(float64(len(s.staged)))
}

// insertIdle appends j to its owner's idle queue.
func (s *Schedd) insertIdle(j *Job) {
	q := s.ownerQ[j.Owner]
	if q == nil {
		q = &jobFIFO{}
		s.ownerQ[j.Owner] = q
	}
	q.push(j)
	s.idle++
}

// removeIdle drops j from its owner's idle queue. It reports whether j
// was queued.
func (s *Schedd) removeIdle(j *Job) bool {
	q := s.ownerQ[j.Owner]
	if q == nil || !q.remove(j) {
		return false
	}
	s.idle--
	return true
}

// Subscribe registers a listener for job state transitions.
func (s *Schedd) Subscribe(fn Listener) { s.listeners = append(s.listeners, fn) }

func (s *Schedd) notify(j *Job, ev EventType) {
	for _, fn := range s.listeners {
		fn(j, ev)
	}
}

// Submit accepts jobs under a fresh cluster id. Jobs enter the queue
// (000 event, SubmitTime stamped) immediately up to the MaxIdleSubmit
// throttle; the rest stay staged and are released as the queue drains.
// It returns the cluster id. Submission is atomic: the whole slice is
// validated (and the SubmitGate consulted) before any job is staged or
// a cluster id consumed, so a rejected submission leaves no trace.
func (s *Schedd) Submit(jobs []*Job) (int, error) {
	if len(jobs) == 0 {
		return 0, fmt.Errorf("htcondor: empty submission")
	}
	for i, j := range jobs {
		if j.Status != Idle && j.Status != 0 {
			return 0, fmt.Errorf("htcondor: job %d submitted in state %v", i, j.Status)
		}
	}
	if s.SubmitGate != nil {
		if err := s.SubmitGate(jobs); err != nil {
			if s.obs != nil {
				s.met.rejected.Inc()
			}
			return 0, err
		}
	}
	cluster := s.nextCluster
	s.nextCluster++
	s.staged = slices.Grow(s.staged, len(jobs))
	s.all = slices.Grow(s.all, len(jobs))
	for i, j := range jobs {
		j.Cluster = cluster
		j.Proc = i
		j.Status = Idle
		s.staged = append(s.staged, j)
		s.all = append(s.all, j)
	}
	s.pump()
	return cluster, nil
}

// pump releases staged jobs into the idle queue while the throttle
// allows, writing their 000 events with the release time.
func (s *Schedd) pump() {
	for len(s.staged) > 0 && (s.MaxIdleSubmit <= 0 || s.idle < s.MaxIdleSubmit) {
		j := s.staged[0]
		s.staged = s.staged[1:]
		j.SubmitTime = s.kernel.Now()
		s.insertIdle(j)
		if s.obs != nil && s.obs.RecordsSpans() {
			sp := s.obs.StartSpan("job", j.ID())
			sp.Annotate("submit")
			s.spans[j] = sp
		}
		s.appendEvent(j, EventSubmit, s.Name)
		s.notify(j, EventSubmit)
	}
	s.queueGauges()
}

// StagedCount returns jobs accepted but not yet submitted — the
// "unsubmitted" jobs the paper's bursting policies 1 and 3 offload.
func (s *Schedd) StagedCount() int { return len(s.staged) }

func (s *Schedd) appendEvent(j *Job, t EventType, host string) {
	if s.obs != nil {
		c := s.met.events[t]
		if c == nil {
			c = s.obs.Counter("fdw_schedd_events_total", "schedd", s.Name, "type", t.String())
			s.met.events[t] = c
		}
		c.Inc()
	}
	_ = s.log.Append(JobEvent{
		Type:    t,
		Cluster: j.Cluster,
		Proc:    j.Proc,
		At:      s.kernel.Now(),
		Host:    host,
	})
}

// QueueDepth returns the number of idle jobs.
func (s *Schedd) QueueDepth() int { return s.idle }

// AppendIdleOwners appends the owners that currently have idle jobs
// here to dst, sorted by name, and returns the extended slice. Only the
// appended part is sorted, so a caller can reuse one buffer across
// schedds and cycles without allocating.
func (s *Schedd) AppendIdleOwners(dst []string) []string {
	start := len(dst)
	for owner, q := range s.ownerQ {
		if q.live > 0 {
			dst = append(dst, owner)
		}
	}
	sort.Strings(dst[start:])
	return dst
}

// OwnerIdleCursor opens a cursor over owner's idle jobs in FIFO order,
// bounded to jobs queued at the time of the call. It starts past the
// queue's leading tombstones. The cursor stays valid across claims
// (removals) but not across new submissions or evictions, so it must be
// consumed within one negotiation cycle.
func (s *Schedd) OwnerIdleCursor(owner string) IdleCursor {
	q := s.ownerQ[owner]
	if q == nil {
		return IdleCursor{}
	}
	return IdleCursor{f: q, pos: q.head, end: len(q.jobs)}
}

// Completed returns how many jobs have terminated successfully.
func (s *Schedd) Completed() int { return s.completed }

// AllJobs returns every job ever submitted, in submission order.
func (s *Schedd) AllJobs() []*Job { return s.all }

// Done reports whether every accepted job has finished (completed or
// removed) and nothing remains staged.
func (s *Schedd) Done() bool {
	return len(s.staged) == 0 && s.completed+s.removed == len(s.all)
}

func (s *Schedd) dropStaged(j *Job) bool {
	for i, q := range s.staged {
		if q == j {
			s.staged = append(s.staged[:i], s.staged[i+1:]...)
			return true
		}
	}
	return false
}

// MarkRunning transitions an idle job to running on the named host.
// The negotiator calls this when a match is claimed.
func (s *Schedd) MarkRunning(j *Job, host string) error {
	if j.Status != Idle {
		return fmt.Errorf("htcondor: MarkRunning on %v job %s", j.Status, j.ID())
	}
	if !s.removeIdle(j) {
		return fmt.Errorf("htcondor: job %s not in idle queue", j.ID())
	}
	j.Status = Running
	j.StartTime = s.kernel.Now()
	j.Site = host
	if s.obs != nil {
		// Guard the lookup: jobs submitted before SetObs have no span.
		if sp := s.spans[j]; sp != nil {
			sp.Annotate("match")
		}
		s.met.waitSecs.Observe(float64(j.StartTime - j.SubmitTime))
		s.queueGauges()
	}
	s.appendEvent(j, EventExecute, host)
	s.notify(j, EventExecute)
	return nil
}

// MarkCompleted finalizes a running job.
func (s *Schedd) MarkCompleted(j *Job, exitCode int) error {
	if j.Status != Running {
		return fmt.Errorf("htcondor: MarkCompleted on %v job %s", j.Status, j.ID())
	}
	j.Status = Completed
	j.EndTime = s.kernel.Now()
	j.ExitCode = exitCode
	s.completed++
	if s.obs != nil {
		s.met.execSecs.Observe(float64(j.EndTime - j.StartTime))
		if sp := s.spans[j]; sp != nil {
			sp.End("completed")
			delete(s.spans, j)
		}
	}
	s.appendEvent(j, EventTerminated, j.Site)
	s.pump()
	s.notify(j, EventTerminated)
	return nil
}

// MarkEvicted returns a running job to the idle queue (glidein
// preemption / shutdown). The job will renegotiate.
func (s *Schedd) MarkEvicted(j *Job) error {
	if j.Status != Running {
		return fmt.Errorf("htcondor: MarkEvicted on %v job %s", j.Status, j.ID())
	}
	j.Status = Idle
	j.Evictions++
	j.Site = ""
	s.insertIdle(j)
	if s.obs != nil {
		if sp := s.spans[j]; sp != nil {
			sp.Annotate("evicted")
		}
		s.queueGauges()
	}
	s.appendEvent(j, EventEvicted, "")
	s.notify(j, EventEvicted)
	return nil
}

// Remove aborts a job (condor_rm): idle jobs leave the queue (staged
// jobs leave the staging buffer), running jobs are stopped by the
// caller first. The bursting simulator's Policy 2 removes long-queued
// jobs this way before offloading them; the recovery layer removes
// losing hedge attempts.
func (s *Schedd) Remove(j *Job) error {
	switch j.Status {
	case Idle:
		if !s.removeIdle(j) && !s.dropStaged(j) {
			return fmt.Errorf("htcondor: job %s not in idle queue", j.ID())
		}
	case Running:
		return fmt.Errorf("htcondor: remove running job %s (evict first)", j.ID())
	case Removed, Completed:
		return fmt.Errorf("htcondor: remove finished job %s", j.ID())
	}
	j.Status = Removed
	j.EndTime = s.kernel.Now()
	s.removed++
	if sp := s.spans[j]; sp != nil {
		sp.End("removed")
		delete(s.spans, j)
	}
	s.appendEvent(j, EventAborted, "")
	s.pump()
	s.notify(j, EventAborted)
	return nil
}

// AbortRunning transitions a running job straight to Removed. The
// caller must already have torn down the job's claim (the pool's
// CancelClaim) — this is the condor_rm of a running job whose slot the
// recovery layer reclaimed, e.g. the losing attempt of a hedge pair.
func (s *Schedd) AbortRunning(j *Job) error {
	if j.Status != Running {
		return fmt.Errorf("htcondor: AbortRunning on %v job %s", j.Status, j.ID())
	}
	j.Status = Removed
	j.EndTime = s.kernel.Now()
	s.removed++
	if sp := s.spans[j]; sp != nil {
		sp.End("removed")
		delete(s.spans, j)
	}
	s.appendEvent(j, EventAborted, j.Site)
	s.pump()
	s.notify(j, EventAborted)
	return nil
}

// AdoptResult finalizes j as completed with the given exit code even
// though the schedd never saw the attempt finish: the recovery layer
// grafts the winning hedge clone's result onto the original job. Idle
// originals (queued or staged) simply leave the queue; running
// originals must have had their claim torn down via the pool's
// CancelClaim first.
func (s *Schedd) AdoptResult(j *Job, exitCode int) error {
	switch j.Status {
	case Idle:
		if !s.removeIdle(j) && !s.dropStaged(j) {
			return fmt.Errorf("htcondor: AdoptResult on unknown idle job %s", j.ID())
		}
	case Running:
		// Claim already cancelled by the caller.
	default:
		return fmt.Errorf("htcondor: AdoptResult on %v job %s", j.Status, j.ID())
	}
	j.Status = Completed
	j.EndTime = s.kernel.Now()
	j.ExitCode = exitCode
	s.completed++
	if s.obs != nil {
		if sp := s.spans[j]; sp != nil {
			sp.End("adopted")
			delete(s.spans, j)
		}
	}
	s.appendEvent(j, EventTerminated, j.Site)
	s.pump()
	s.notify(j, EventTerminated)
	return nil
}
