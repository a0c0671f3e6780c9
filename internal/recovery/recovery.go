// Package recovery is the deterministic, sim-clock-native adaptive
// recovery layer for the OSPool/HTCondor stack — the defensive
// counterpart of internal/faults. A Policy bundles four fixed
// mechanisms, each a production-HTCondor recovery shape the fault
// engine's pathologies exist to exercise:
//
//  1. exponential backoff with deterministic jitter on DAGMan RETRY
//     resubmissions (instead of the classic same-tick requeue), via
//     dagman.Executor.RetryDelay;
//  2. per-site circuit breakers over execution/transfer failure
//     history: an open breaker vetoes matchmaking at that site
//     (ospool.Pool's RecoveryHook seam) and half-open probing after a
//     cooldown decides whether to close it again;
//  3. per-job wall-clock deadlines (HTCondor periodic_remove analogue)
//     that evict attempts exceeding a multiple of expected runtime, so
//     a black-hole slot cannot absorb a node's whole RETRY budget;
//  4. straggler hedging: when an attempt runs past a quantile of its
//     completed siblings' runtimes, a speculative clone is submitted
//     and the first finisher wins, the loser being cancelled.
//
// There is one policy: its tuning is the constants below, and the off
// state is attaching no policy (every nil-off hook seam then takes the
// pre-recovery code path).
//
// Determinism: the policy owns a private sim.RNG stream split from the
// kernel's root (like internal/faults), so attaching a policy never
// perturbs the pool's or workflow's variate sequences. All state is
// keyed by site name, (schedd, cluster) and Proc, or clone pointer, and
// mutated only inside kernel events, so runs are reproducible for any
// GOMAXPROCS or -j fan-out.
package recovery

import (
	"fmt"
	"sort"

	"fdw/internal/dagman"
	"fdw/internal/htcondor"
	"fdw/internal/obs"
	"fdw/internal/ospool"
	"fdw/internal/sim"
)

// The one recovery policy. Each constant is tuned for the standard
// chaos plans at OSPool scale.
const (
	// Retry backoff spreads retry storms without stalling short DAGs:
	// attempt k waits min(base·factor^(k-1), max) seconds, scaled by
	// 1 + jitter·U(-1,1) from the policy's private stream.
	backoffBaseSeconds = 30   // delay before the first retry
	backoffFactor      = 2    // multiplier per additional failed attempt
	backoffMaxSeconds  = 600  // delay ceiling
	backoffJitter      = 0.25 // ± fractional jitter, in [0,1)

	// Breakers trip on sustained single-site failure (a black hole) but
	// tolerate pool-wide probabilistic bursts.
	breakerFailureThreshold = 4    // consecutive failures that open a breaker
	breakerCooldownSeconds  = 1800 // open duration before half-open probing
	breakerHalfOpenProbes   = 2    // attempts admitted while half-open

	// Deadlines give slow sites generous slack: an attempt's budget is
	// multiple × BaseExecSeconds + grace, doubled per prior eviction.
	deadlineMultiple     = 6
	deadlineGraceSeconds = 900 // absolute slack for transfers and slow slots

	// Hedging only chases clear stragglers: an attempt running past
	// multiplier × the quantile of its completed siblings' runtimes,
	// once enough siblings have completed, gets a speculative clone.
	hedgeQuantile    = 0.75
	hedgeMultiplier  = 3
	hedgeMinSiblings = 4
)

// Stats are the policy's obs-independent decision counters.
type Stats struct {
	BackoffHolds      int     // node retries delayed by backoff
	BackoffSeconds    float64 // total delay imposed
	BreakerOpens      int
	BreakerHalfOpens  int
	BreakerCloses     int
	DeadlineEvictions int
	HedgesSubmitted   int
	HedgeWins         int // clone finished first with exit 0
	HedgeLosses       int // clone cancelled or failed
	HedgeSubmitErrors int // clone submissions the schedd refused
}

// breakerState is the classic circuit-breaker state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("breakerState(%d)", int(s))
	}
}

type breaker struct {
	state       breakerState
	consecutive int      // consecutive failures while closed
	openedAt    sim.Time // when the breaker last opened
	probes      int      // attempts admitted while half-open
}

// Policy binds the recovery constants to a kernel and implements the
// ospool.RecoveryHook seam plus the DAGMan RetryDelay hook. One policy
// serves one simulated environment; its RNG stream is split from the
// kernel's root at construction, so creation order relative to other
// Split calls is part of the reproducible setup.
type Policy struct {
	kernel *sim.Kernel
	rng    *sim.RNG
	obs    *obs.Registry

	pool     *ospool.Pool
	breakers map[string]*breaker

	hedge hedgeState

	stats Stats
	err   error // first fault a listener met; see Err
}

// New binds a policy to k.
func New(k *sim.Kernel) *Policy {
	return &Policy{
		kernel:   k,
		rng:      k.RNG().Split(0x4ec0e4),
		breakers: map[string]*breaker{},
		hedge:    newHedgeState(),
	}
}

// Err returns the first fault the policy's listeners met, nil if none.
// A listener cannot return an error, so the caller checks Err after
// the run.
func (r *Policy) Err() error { return r.err }

// SetObs attaches a metrics registry; decisions are counted but never
// read back (record-never-decide). nil disables instrumentation.
func (r *Policy) SetObs(o *obs.Registry) { r.obs = o }

// Attach installs the policy into a pool and subscribes the hedging
// listener to the schedds submitting to it. Call once, before the
// simulation runs.
func (r *Policy) Attach(p *ospool.Pool, schedds ...*htcondor.Schedd) {
	r.pool = p
	p.SetRecovery(r)
	for _, s := range schedds {
		s := s
		s.Subscribe(func(j *htcondor.Job, ev htcondor.EventType) { r.onJobEvent(s, j, ev) })
	}
}

// AttachExecutor installs the backoff hook on a DAGMan executor.
func (r *Policy) AttachExecutor(e *dagman.Executor) { e.RetryDelay = r.RetryDelay }

// RetryDelay implements the dagman.Executor hook: exponential backoff
// with deterministic jitter from the policy's private stream. attempt
// is the just-failed attempt number (1 for the first failure).
func (r *Policy) RetryDelay(node string, attempt int) sim.Time {
	d := float64(backoffBaseSeconds)
	for i := 1; i < attempt && d < backoffMaxSeconds; i++ {
		d *= backoffFactor
	}
	if d > backoffMaxSeconds {
		d = backoffMaxSeconds
	}
	d *= 1 + backoffJitter*r.rng.Uniform(-1, 1)
	if d < 1 {
		d = 1
	}
	r.stats.BackoffHolds++
	r.stats.BackoffSeconds += d
	if r.obs != nil {
		r.obs.Histogram("fdw_recovery_backoff_seconds").Observe(d)
	}
	return sim.Time(d)
}

// transition moves a site's breaker to a new state, updating counters.
func (r *Policy) transition(site string, b *breaker, to breakerState, now sim.Time) {
	if b.state == to {
		return
	}
	b.state = to
	switch to {
	case breakerOpen:
		b.openedAt = now
		b.probes = 0
		r.stats.BreakerOpens++
	case breakerHalfOpen:
		b.probes = 0
		r.stats.BreakerHalfOpens++
	case breakerClosed:
		b.consecutive = 0
		r.stats.BreakerCloses++
	}
	if r.obs != nil {
		r.obs.Counter("fdw_recovery_breaker_transitions_total", "site", site, "to", to.String()).Inc()
		r.obs.Gauge("fdw_recovery_breaker_state", "site", site).Set(float64(to))
	}
}

// VetoMatch implements ospool.RecoveryHook: an open breaker vetoes the
// site until its cooldown elapses, then the breaker goes half-open and
// admits a bounded number of probe attempts.
func (r *Policy) VetoMatch(site string, now sim.Time) bool {
	b := r.breakers[site]
	if b == nil {
		return false
	}
	switch b.state {
	case breakerOpen:
		if float64(now-b.openedAt) < breakerCooldownSeconds {
			return true
		}
		r.transition(site, b, breakerHalfOpen, now)
		return false
	case breakerHalfOpen:
		return b.probes >= breakerHalfOpenProbes
	default:
		return false
	}
}

// JobDeadlineSeconds implements ospool.RecoveryHook: the wall-clock
// budget for one attempt. Each eviction the job has already suffered
// doubles the budget, so a job can never be starved by its own deadline
// — slow sites and cold transfers eventually fit.
func (r *Policy) JobDeadlineSeconds(j *htcondor.Job, now sim.Time) float64 {
	base := j.BaseExecSeconds
	if base < 1 {
		base = 1
	}
	budget := deadlineMultiple*base + deadlineGraceSeconds
	for i := 0; i < j.Evictions && i < 8; i++ {
		budget *= 2
	}
	return budget
}

// AttemptStarted implements ospool.RecoveryHook.
func (r *Policy) AttemptStarted(site string, j *htcondor.Job, now sim.Time) {
	if b := r.breakers[site]; b != nil && b.state == breakerHalfOpen {
		b.probes++
	}
}

// AttemptEnded implements ospool.RecoveryHook: failure accounting for
// the breakers. Deadline evictions and preemptions are site-neutral
// (a slow slot is not a broken site) and do not move breakers.
func (r *Policy) AttemptEnded(site string, j *htcondor.Job, outcome ospool.AttemptOutcome, ranSeconds float64, now sim.Time) {
	if outcome == ospool.AttemptDeadline {
		r.stats.DeadlineEvictions++
	}
	switch outcome {
	case ospool.AttemptOK:
		b := r.breakers[site]
		if b == nil {
			return
		}
		switch b.state {
		case breakerHalfOpen:
			// A probe succeeded: the site has recovered.
			r.transition(site, b, breakerClosed, now)
		case breakerClosed:
			b.consecutive = 0
		}
	case ospool.AttemptFailed:
		b := r.breakers[site]
		if b == nil {
			b = &breaker{}
			r.breakers[site] = b
		}
		switch b.state {
		case breakerHalfOpen:
			// A probe failed: reopen for another cooldown.
			r.transition(site, b, breakerOpen, now)
		case breakerClosed:
			b.consecutive++
			if b.consecutive >= breakerFailureThreshold {
				r.transition(site, b, breakerOpen, now)
			}
		case breakerOpen:
			// In-flight attempts finishing after the breaker opened.
		}
	}
}

// OpenBreakers implements ospool.RecoveryHook: the sorted list of sites
// whose breakers are currently open (for horizon-timeout diagnostics).
func (r *Policy) OpenBreakers(now sim.Time) []string {
	var open []string
	for site, b := range r.breakers {
		if b.state == breakerOpen {
			open = append(open, site)
		}
	}
	sort.Strings(open)
	return open
}

// breakerStateOf exposes a site's breaker state to tests.
func (r *Policy) breakerStateOf(site string) breakerState {
	if b := r.breakers[site]; b != nil {
		return b.state
	}
	return breakerClosed
}
