// Package recovery is the deterministic, sim-clock-native adaptive
// recovery layer for the OSPool/HTCondor stack — the defensive
// counterpart of internal/faults. A Policy bundles four individually
// toggleable mechanisms, each a production-HTCondor recovery shape the
// fault engine's pathologies exist to exercise:
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
// Determinism: the policy owns a private sim.RNG stream split from the
// kernel's root (like internal/faults), so attaching a policy never
// perturbs the pool's or workflow's variate sequences, and a fully
// disabled policy is byte-identical to no policy at all. All state is
// keyed by pointer or site name and mutated only inside kernel events,
// so runs are reproducible for any GOMAXPROCS or -j fan-out.
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

// BackoffConfig shapes retry backoff for DAGMan node resubmissions.
type BackoffConfig struct {
	Enabled     bool
	BaseSeconds float64 // delay before the first retry
	Factor      float64 // multiplier per additional failed attempt
	MaxSeconds  float64 // delay ceiling
	Jitter      float64 // ± fractional jitter, in [0,1): delay *= 1 + Jitter*U(-1,1)
}

// BreakerConfig shapes the per-site circuit breakers.
type BreakerConfig struct {
	Enabled          bool
	FailureThreshold int     // consecutive failures that open the breaker
	CooldownSeconds  float64 // open duration before half-open probing
	HalfOpenProbes   int     // attempts admitted while half-open
}

// DeadlineConfig shapes per-job wall-clock deadlines.
type DeadlineConfig struct {
	Enabled      bool
	Multiple     float64 // budget = Multiple × BaseExecSeconds + GraceSeconds
	GraceSeconds float64 // absolute slack for transfers and slow slots
}

// HedgeConfig shapes straggler hedging.
type HedgeConfig struct {
	Enabled     bool
	Quantile    float64 // sibling-runtime quantile the threshold grows from, in (0,1]
	Multiplier  float64 // threshold = Multiplier × quantile runtime
	MinSiblings int     // completed siblings needed before hedging arms
}

// Config bundles the four mechanisms. The zero value disables all of
// them; an attached all-disabled policy leaves every simulation
// byte-identical to an unattached one.
type Config struct {
	Backoff  BackoffConfig
	Breaker  BreakerConfig
	Deadline DeadlineConfig
	Hedge    HedgeConfig
}

// DefaultConfig enables all four mechanisms with settings tuned for
// the standard chaos plans at OSPool scale: backoff spreads retry storms
// without stalling short DAGs, breakers trip on sustained single-site
// failure (a black hole) but tolerate pool-wide probabilistic bursts,
// deadlines give slow sites generous slack, and hedging only chases
// clear stragglers.
func DefaultConfig() Config {
	return Config{
		Backoff: BackoffConfig{
			Enabled:     true,
			BaseSeconds: 30,
			Factor:      2,
			MaxSeconds:  600,
			Jitter:      0.25,
		},
		Breaker: BreakerConfig{
			Enabled:          true,
			FailureThreshold: 4,
			CooldownSeconds:  1800,
			HalfOpenProbes:   2,
		},
		Deadline: DeadlineConfig{
			Enabled:      true,
			Multiple:     6,
			GraceSeconds: 900,
		},
		Hedge: HedgeConfig{
			Enabled:     true,
			Quantile:    0.75,
			Multiplier:  3,
			MinSiblings: 4,
		},
	}
}

// Validate reports configuration errors. Parameters of disabled
// mechanisms are not checked, so the zero Config is always valid.
func (c Config) Validate() error {
	if b := c.Backoff; b.Enabled {
		if b.BaseSeconds <= 0 {
			return fmt.Errorf("recovery: backoff base %v must be positive", b.BaseSeconds)
		}
		if b.Factor < 1 {
			return fmt.Errorf("recovery: backoff factor %v must be >= 1", b.Factor)
		}
		if b.MaxSeconds < b.BaseSeconds {
			return fmt.Errorf("recovery: backoff max %v below base %v", b.MaxSeconds, b.BaseSeconds)
		}
		if b.Jitter < 0 || b.Jitter >= 1 {
			return fmt.Errorf("recovery: backoff jitter %v outside [0,1)", b.Jitter)
		}
	}
	if b := c.Breaker; b.Enabled {
		if b.FailureThreshold <= 0 {
			return fmt.Errorf("recovery: breaker threshold %d must be positive", b.FailureThreshold)
		}
		if b.CooldownSeconds <= 0 {
			return fmt.Errorf("recovery: breaker cooldown %v must be positive", b.CooldownSeconds)
		}
		if b.HalfOpenProbes <= 0 {
			return fmt.Errorf("recovery: breaker probes %d must be positive", b.HalfOpenProbes)
		}
	}
	if d := c.Deadline; d.Enabled {
		if d.Multiple <= 1 {
			return fmt.Errorf("recovery: deadline multiple %v must exceed 1", d.Multiple)
		}
		if d.GraceSeconds < 0 {
			return fmt.Errorf("recovery: negative deadline grace %v", d.GraceSeconds)
		}
	}
	if h := c.Hedge; h.Enabled {
		if h.Quantile <= 0 || h.Quantile > 1 {
			return fmt.Errorf("recovery: hedge quantile %v outside (0,1]", h.Quantile)
		}
		if h.Multiplier <= 1 {
			return fmt.Errorf("recovery: hedge multiplier %v must exceed 1", h.Multiplier)
		}
		if h.MinSiblings < 2 {
			return fmt.Errorf("recovery: hedge min siblings %d must be >= 2", h.MinSiblings)
		}
	}
	return nil
}

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

// Policy binds a validated Config to a kernel and implements the
// ospool.RecoveryHook seam plus the DAGMan RetryDelay hook. One policy
// serves one simulated environment; its RNG stream is split from the
// kernel's root at construction, so creation order relative to other
// Split calls is part of the reproducible setup.
type Policy struct {
	cfg    Config
	kernel *sim.Kernel
	rng    *sim.RNG
	obs    *obs.Registry

	pool     *ospool.Pool
	breakers map[string]*breaker

	hedge hedgeState

	stats Stats
}

// New validates cfg and binds it to k.
func New(k *sim.Kernel, cfg Config) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Policy{
		cfg:      cfg,
		kernel:   k,
		rng:      k.RNG().Split(0x4ec0e4),
		breakers: map[string]*breaker{},
		hedge:    newHedgeState(),
	}, nil
}

// SetObs attaches a metrics registry; decisions are counted but never
// read back (record-never-decide). nil disables instrumentation.
func (r *Policy) SetObs(o *obs.Registry) { r.obs = o }

// Attach installs the policy into a pool and, when hedging is enabled,
// subscribes to the schedds submitting to it. Call once, before the
// simulation runs.
func (r *Policy) Attach(p *ospool.Pool, schedds ...*htcondor.Schedd) {
	r.pool = p
	p.SetRecovery(r)
	if r.cfg.Hedge.Enabled {
		for _, s := range schedds {
			s := s
			s.Subscribe(func(j *htcondor.Job, ev htcondor.EventType) { r.onJobEvent(s, j, ev) })
		}
	}
}

// AttachExecutor installs the backoff hook on a DAGMan executor. With
// backoff disabled the hook returns 0 and the executor's requeue path
// is byte-identical to having no hook at all.
func (r *Policy) AttachExecutor(e *dagman.Executor) { e.RetryDelay = r.RetryDelay }

// RetryDelay implements the dagman.Executor hook: exponential backoff
// with deterministic jitter from the policy's private stream. attempt
// is the just-failed attempt number (1 for the first failure).
func (r *Policy) RetryDelay(node string, attempt int) sim.Time {
	b := r.cfg.Backoff
	if !b.Enabled {
		return 0
	}
	d := b.BaseSeconds
	for i := 1; i < attempt && d < b.MaxSeconds; i++ {
		d *= b.Factor
	}
	if d > b.MaxSeconds {
		d = b.MaxSeconds
	}
	if b.Jitter > 0 {
		d *= 1 + b.Jitter*r.rng.Uniform(-1, 1)
	}
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
	if !r.cfg.Breaker.Enabled {
		return false
	}
	b := r.breakers[site]
	if b == nil {
		return false
	}
	switch b.state {
	case breakerOpen:
		if float64(now-b.openedAt) < r.cfg.Breaker.CooldownSeconds {
			return true
		}
		r.transition(site, b, breakerHalfOpen, now)
		return false
	case breakerHalfOpen:
		return b.probes >= r.cfg.Breaker.HalfOpenProbes
	default:
		return false
	}
}

// JobDeadlineSeconds implements ospool.RecoveryHook: the wall-clock
// budget for one attempt. Each eviction the job has already suffered
// doubles the budget, so a job can never be starved by its own deadline
// — slow sites and cold transfers eventually fit.
func (r *Policy) JobDeadlineSeconds(j *htcondor.Job, now sim.Time) float64 {
	d := r.cfg.Deadline
	if !d.Enabled {
		return 0
	}
	base := j.BaseExecSeconds
	if base < 1 {
		base = 1
	}
	budget := d.Multiple*base + d.GraceSeconds
	for i := 0; i < j.Evictions && i < 8; i++ {
		budget *= 2
	}
	return budget
}

// AttemptStarted implements ospool.RecoveryHook.
func (r *Policy) AttemptStarted(site string, j *htcondor.Job, now sim.Time) {
	if r.cfg.Breaker.Enabled {
		if b := r.breakers[site]; b != nil && b.state == breakerHalfOpen {
			b.probes++
		}
	}
}

// AttemptEnded implements ospool.RecoveryHook: failure accounting for
// the breakers. Deadline evictions and preemptions are site-neutral
// (a slow slot is not a broken site) and do not move breakers.
func (r *Policy) AttemptEnded(site string, j *htcondor.Job, outcome ospool.AttemptOutcome, ranSeconds float64, now sim.Time) {
	if outcome == ospool.AttemptDeadline {
		r.stats.DeadlineEvictions++
	}
	if !r.cfg.Breaker.Enabled {
		return
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
			if b.consecutive >= r.cfg.Breaker.FailureThreshold {
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
