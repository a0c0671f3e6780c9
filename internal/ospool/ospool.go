// Package ospool models the Open Science Pool: an opportunistic,
// glidein-based HTC pool shared by many submitters. The model captures
// the dynamics the paper's experiments hinge on — gradual glidein
// ramp-up, fluctuating opportunistic capacity, pilot lifetimes and
// preemption, a periodic fair-share negotiation cycle with a bounded
// match rate, and Stash-cache input delivery — so that throughput
// scaling, wait-time growth under concurrent DAGMans, and erratic
// running-job footprints emerge rather than being scripted.
//
// The pool is engineered for OSPool magnitude (10⁵ glideins, 10⁶
// jobs): matchmaking runs over per-site free-slot heaps plus a
// requirements-signature match cache instead of scanning every
// glidein per job (see DESIGN.md §12), and all hot-path state —
// fair-share usage, busy counts, claim lookup — is maintained
// incrementally rather than rebuilt per cycle. The indexed negotiator
// provably reproduces the seed linear scan match-for-match;
// negotiate_ref_test.go retains that linear scan as the executable
// specification, and TestIndexedNegotiatorMatchesReference checks the
// equivalence property.
package ospool

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"fdw/internal/classad"
	"fdw/internal/htcondor"
	"fdw/internal/obs"
	"fdw/internal/sim"
	"fdw/internal/stash"
)

// SiteConfig describes one contributing site.
type SiteConfig struct {
	Name     string
	MaxSlots int     // peak concurrent glideins this site can host
	Speed    float64 // mean execution-time multiplier (1.0 = reference)
	SpeedSD  float64 // per-glidein speed variation
	CpusPer  int     // cores per slot
	MemoryMB int     // memory per slot
}

// Config parameterizes the pool.
type Config struct {
	Sites []SiteConfig

	NegotiationInterval sim.Time // negotiator cycle period
	ProvisionInterval   sim.Time // glidein factory period
	MatchesPerCycle     int      // claim limit per negotiation cycle

	GlideinRampMean     sim.Time // mean pilot provisioning delay
	GlideinLifetimeMean sim.Time // mean pilot lifetime
	GlideinIdleTimeout  sim.Time // idle pilots retire after this long

	// Opportunistic availability fluctuates between AvailabilityMin and
	// 1.0 with the given period (other users' demand ebbs and flows).
	AvailabilityPeriod sim.Time
	AvailabilityMin    float64

	// ExecJitterSigma is the lognormal sigma applied to execution times.
	ExecJitterSigma float64
}

// DefaultConfig yields an OSPool-scale setup calibrated for the paper's
// experiments: several hundred reachable slots at peak, minutes-scale
// glidein ramp, hours-scale pilot lifetimes, a 30-second negotiator.
func DefaultConfig() Config {
	sites := []SiteConfig{
		{Name: "uchicago", MaxSlots: 130, Speed: 1.00, SpeedSD: 0.08, CpusPer: 4, MemoryMB: 16384},
		{Name: "sdsc", MaxSlots: 90, Speed: 0.92, SpeedSD: 0.10, CpusPer: 4, MemoryMB: 16384},
		{Name: "unl", MaxSlots: 70, Speed: 1.05, SpeedSD: 0.10, CpusPer: 4, MemoryMB: 16384},
		{Name: "syracuse", MaxSlots: 60, Speed: 1.12, SpeedSD: 0.12, CpusPer: 4, MemoryMB: 16384},
		{Name: "ucsd", MaxSlots: 50, Speed: 0.95, SpeedSD: 0.08, CpusPer: 4, MemoryMB: 16384},
		{Name: "wisc", MaxSlots: 60, Speed: 1.00, SpeedSD: 0.10, CpusPer: 4, MemoryMB: 16384},
	}
	return Config{
		Sites:               sites,
		NegotiationInterval: 30,
		ProvisionInterval:   60,
		MatchesPerCycle:     120,
		GlideinRampMean:     420,
		GlideinLifetimeMean: 6 * 3600,
		GlideinIdleTimeout:  900,
		AvailabilityPeriod:  4 * 3600,
		AvailabilityMin:     0.45,
		ExecJitterSigma:     0.18,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Sites) == 0 {
		return fmt.Errorf("ospool: no sites")
	}
	for _, s := range c.Sites {
		if s.MaxSlots <= 0 || s.Speed <= 0 {
			return fmt.Errorf("ospool: site %q has invalid slots/speed", s.Name)
		}
	}
	if c.NegotiationInterval <= 0 || c.ProvisionInterval <= 0 {
		return fmt.Errorf("ospool: non-positive intervals")
	}
	if c.MatchesPerCycle <= 0 {
		return fmt.Errorf("ospool: non-positive MatchesPerCycle")
	}
	if c.AvailabilityMin <= 0 || c.AvailabilityMin > 1 {
		return fmt.Errorf("ospool: AvailabilityMin %v outside (0,1]", c.AvailabilityMin)
	}
	return nil
}

// TotalSlots returns the sum of site capacities.
func (c Config) TotalSlots() int {
	n := 0
	for _, s := range c.Sites {
		n += s.MaxSlots
	}
	return n
}

// glidein is one pilot slot. Ids are allocated in arrival order and
// never reused, so "ascending id" is exactly the seed negotiator's
// scan order — the invariant the per-site free heaps preserve.
type glidein struct {
	id       int
	site     *SiteConfig
	siteIdx  int // index into Pool.sites
	speed    float64
	host     string // "glidein-<id>.<site>", built by hostName on first claim
	ad       classad.Ad
	job      *htcondor.Job
	schedd   *htcondor.Schedd
	expire   sim.Time
	idleAt   sim.Time
	retired  bool
	heapIdx  int        // position in its site's free heap; -1 when busy
	done     *sim.Event // pending completion or deadline event of the claim
	expireEv *sim.Event // scheduled lifetime-expiry event

	// The running claim's outcome, read by its completion or deadline
	// event: exit code and how long the slot is held. claim numbers the
	// glidein's claims; an event scheduled for an earlier one is stale.
	exitCode int
	held     sim.Time
	claim    uint64

	// Callbacks built once per glidein, so a claim schedules its events
	// without allocating a closure.
	onDone     func(claim uint64)
	onDeadline func(claim uint64)
	onExpire   func()
}

// siteState is the per-site shard of the matchmaking index: the shared
// machine ad (glidein ads are identical within a site — speed is not
// advertised) and the min-heap of free glideins keyed by id.
type siteState struct {
	cfg       *SiteConfig
	ad        classad.Ad
	free      freeHeap
	liveCount int    // glideins at this site, idle + busy
	arrive    func() // a requested pilot reaching this site; built in New
}

// ExecFault describes an injected outcome for one execution attempt,
// returned by the pool's ExecFault hook. The zero value means "run
// normally".
type ExecFault struct {
	// Fail makes the job exit non-zero after its normal runtime
	// (application-level failure).
	Fail bool
	// BlackHole makes the job exit non-zero after a short constant
	// runtime — the node-black-hole pathology, where a broken slot
	// churns through jobs far faster than healthy ones finish them.
	BlackHole bool
	// TransferFail aborts the attempt when the input transfer completes:
	// the job exits non-zero having done no work.
	TransferFail bool
}

// blackHoleExecSeconds is how quickly a black-hole slot fails a job.
const blackHoleExecSeconds = 30

// AttemptOutcome classifies how one execution attempt ended, for the
// recovery layer's failure accounting.
type AttemptOutcome int

// Attempt outcomes reported to the RecoveryHook.
const (
	AttemptOK        AttemptOutcome = iota
	AttemptFailed                   // exited non-zero (exec fault, black hole, transfer fail)
	AttemptDeadline                 // evicted by the recovery layer's wall-clock deadline
	AttemptPreempted                // glidein lifetime/drain preemption
)

func (o AttemptOutcome) String() string {
	switch o {
	case AttemptOK:
		return "ok"
	case AttemptFailed:
		return "failed"
	case AttemptDeadline:
		return "deadline"
	case AttemptPreempted:
		return "preempted"
	default:
		return fmt.Sprintf("AttemptOutcome(%d)", int(o))
	}
}

// RecoveryHook is the narrow seam the adaptive recovery layer
// (internal/recovery) plugs into the pool, mirroring SetSiteDown: the
// pool consults it at decision points and reports every attempt outcome
// back to it. A nil hook disables all recovery behaviour and leaves the
// pool byte-identical to the pre-hook code. Implementations must draw
// any randomness from their own split sim.RNG stream.
type RecoveryHook interface {
	// VetoMatch reports whether matchmaking at site is currently vetoed
	// (an open circuit breaker). Vetoed slots are skipped in the
	// negotiator's scan; the job stays idle and renegotiates later.
	VetoMatch(site string, now sim.Time) bool
	// JobDeadlineSeconds returns the wall-clock budget for one attempt
	// of j (transfer + execution). Non-positive means unlimited. An
	// attempt exceeding its budget is evicted back to the queue.
	JobDeadlineSeconds(j *htcondor.Job, now sim.Time) float64
	// AttemptStarted fires when a claim begins executing j at site.
	AttemptStarted(site string, j *htcondor.Job, now sim.Time)
	// AttemptEnded fires when the attempt leaves its slot; ranSeconds is
	// how long the slot was held.
	AttemptEnded(site string, j *htcondor.Job, outcome AttemptOutcome, ranSeconds float64, now sim.Time)
	// OpenBreakers lists sites whose breakers are open (sorted), for the
	// pool's horizon-timeout diagnostics.
	OpenBreakers(now sim.Time) []string
}

// Pool is the simulated OSPool.
type Pool struct {
	kernel *sim.Kernel
	rng    *sim.RNG
	cfg    Config
	cache  *stash.Cache

	// Fault-injection hooks (internal/faults). Both are optional and
	// consulted at decision points only; they must draw any randomness
	// from their own split sim.RNG stream, so attaching them never
	// perturbs the pool's baseline variate sequence.
	siteDown  func(site string, now sim.Time) bool
	execFault func(site string, j *htcondor.Job, now sim.Time) ExecFault

	// recovery, if set, is the adaptive recovery layer's seam (see
	// RecoveryHook). Like the fault hooks it is consulted at decision
	// points only and must not perturb the pool's variate sequence.
	recovery RecoveryHook

	schedds []*htcondor.Schedd

	// Live-slot state, maintained incrementally at every transition
	// instead of recomputed per cycle.
	sites     []siteState
	live      map[int]*glidein           // every live glidein by id
	byJob     map[*htcondor.Job]*glidein // running job -> its slot
	busy      int                        // glideins with a running job
	freeCount int                        // idle glideins across all sites

	// ownerRunning tracks running jobs per owner — the fair-share usage
	// the negotiator seeds each cycle with (the seed code recounted it
	// by scanning every glidein per cycle).
	ownerRunning map[string]int

	// Matchmaking cache: job -> per-site match mask, deduplicated via a
	// requirements signature so the ClassAd machinery runs once per
	// distinct (resources, requirements, referenced-attrs) combination
	// rather than once per job × site. See matchindex.go.
	maskByJob map[*htcondor.Job][]bool
	maskBySig map[string][]bool
	reqAttrs  map[string][]string
	cands     []siteCand // scratch for findSlot's site walk
	scratch   []byte     // byte scratch for matchSig and hostName

	// Negotiation scratch reused across cycles: every owner's cycle
	// state (reset when negCycle moves on), the cycle's owner order,
	// one schedd's idle owners, and pickSite's candidate list.
	negOwners  map[string]*negOwner
	negOrder   []*negOwner
	negCycle   uint64
	idleOwners []string
	siteCands  []siteWeight

	pending int // glideins requested but not yet arrived
	nextID  int
	stopped bool

	phase0 float64 // availability phase offset

	stopFns []func()

	// negotiator, if set, replaces negotiateIndexed — the equivalence
	// property test plugs in the seed linear scan it keeps in
	// negotiate_ref_test.go; traceMatch, if set, observes every
	// successful claim. Both are nil in production.
	negotiator func()
	traceMatch func(j *htcondor.Job, g *glidein)

	// counters
	started   int
	completed int
	evictions int

	// wastedSeconds accumulates slot time that produced no completed
	// work: failed attempts, preemptions, deadline evictions, and
	// cancelled claims. Recovery A/B reporting reads it; nothing in the
	// pool's own scheduling ever does.
	wastedSeconds float64

	obs *obs.Registry
	met poolMetrics
}

// poolMetrics holds pre-resolved instrument handles (per-site slices
// are parallel to Pool.sites) so hot paths skip the registry's
// name+label key assembly. Populated by SetObs.
type poolMetrics struct {
	slotsLive    *obs.Gauge
	slotsBusy    *obs.Gauge
	pendingSlots *obs.Gauge
	capacity     *obs.Gauge
	cycles       *obs.Counter
	matches      *obs.Counter
	retireExpire *obs.Counter
	retireIdle   *obs.Counter
	jobRetries   *obs.Counter
	transferIn   *obs.Histogram
	requested    []*obs.Counter
	arrived      []*obs.Counter
	lost         []*obs.Counter
	preempted    []*obs.Counter
	deadline     []*obs.Counter
	cancelled    []*obs.Counter
}

// New creates a pool bound to a kernel. cache may be nil (transfers
// then cost nothing).
func New(k *sim.Kernel, cfg Config, cache *stash.Cache) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := k.RNG().Split(0x056001)
	p := &Pool{
		kernel:       k,
		rng:          rng,
		cfg:          cfg,
		cache:        cache,
		phase0:       rng.Uniform(0, 2*math.Pi),
		live:         map[int]*glidein{},
		byJob:        map[*htcondor.Job]*glidein{},
		ownerRunning: map[string]int{},
		maskByJob:    map[*htcondor.Job][]bool{},
		maskBySig:    map[string][]bool{},
		reqAttrs:     map[string][]string{},
		negOwners:    map[string]*negOwner{},
	}
	p.sites = make([]siteState, len(p.cfg.Sites))
	for i := range p.cfg.Sites {
		s := &p.cfg.Sites[i]
		p.sites[i] = siteState{
			cfg: s,
			// One machine ad per site: glideins advertise only
			// site-level attributes, so every pilot at a site shares it.
			ad: classad.Ad{
				"Cpus":           classad.Number(float64(s.CpusPer)),
				"Memory":         classad.Number(float64(s.MemoryMB)),
				"HasSingularity": classad.Bool(true),
				"GLIDEIN_Site":   classad.String(s.Name),
			},
			arrive: func() { p.glideinArrives(i) },
		}
	}
	return p, nil
}

// AddSchedd registers a submitter with the pool.
func (p *Pool) AddSchedd(s *htcondor.Schedd) { p.schedds = append(p.schedds, s) }

// SetObs attaches a metrics registry (nil disables instrumentation).
// The registry only records pool dynamics — provisioning, matching, and
// preemption decisions never read from it. Instrument handles are
// resolved here, once, rather than per event.
func (p *Pool) SetObs(r *obs.Registry) {
	p.obs = r
	if r == nil {
		p.met = poolMetrics{}
		return
	}
	m := poolMetrics{
		slotsLive:    r.Gauge("fdw_ospool_slots_live"),
		slotsBusy:    r.Gauge("fdw_ospool_slots_busy"),
		pendingSlots: r.Gauge("fdw_ospool_glideins_pending"),
		capacity:     r.Gauge("fdw_ospool_capacity_slots"),
		cycles:       r.Counter("fdw_ospool_negotiation_cycles_total"),
		matches:      r.Counter("fdw_ospool_matches_total"),
		retireExpire: r.Counter("fdw_ospool_glideins_retired_total", "reason", "expired"),
		retireIdle:   r.Counter("fdw_ospool_glideins_retired_total", "reason", "idle"),
		jobRetries:   r.Counter("fdw_ospool_job_retries_total"),
		transferIn:   r.Histogram("fdw_ospool_transfer_in_seconds"),
	}
	for i := range p.sites {
		name := p.sites[i].cfg.Name
		m.requested = append(m.requested, r.Counter("fdw_ospool_glideins_requested_total", "site", name))
		m.arrived = append(m.arrived, r.Counter("fdw_ospool_glideins_arrived_total", "site", name))
		m.lost = append(m.lost, r.Counter("fdw_ospool_glideins_lost_total", "site", name))
		m.preempted = append(m.preempted, r.Counter("fdw_ospool_preemptions_total", "site", name))
		m.deadline = append(m.deadline, r.Counter("fdw_ospool_deadline_evictions_total", "site", name))
		m.cancelled = append(m.cancelled, r.Counter("fdw_ospool_claims_cancelled_total", "site", name))
	}
	p.met = m
}

// Obs returns the attached registry (nil when observability is off).
func (p *Pool) Obs() *obs.Registry { return p.obs }

// SetSiteDown installs the site-outage hook: while fn reports a site
// down, the factory provisions no glideins there and pilots arriving
// from in-flight requests are discarded. nil clears the hook.
func (p *Pool) SetSiteDown(fn func(site string, now sim.Time) bool) { p.siteDown = fn }

// SetExecFault installs the per-execution fault hook, consulted once
// per claim: the one way a job attempt is made to fail (internal/faults
// injects every fault plan through it). nil clears the hook.
func (p *Pool) SetExecFault(fn func(site string, j *htcondor.Job, now sim.Time) ExecFault) {
	p.execFault = fn
}

// SetRecovery installs the adaptive recovery hook (internal/recovery).
// nil clears it, restoring the exact baseline behaviour.
func (p *Pool) SetRecovery(h RecoveryHook) { p.recovery = h }

// addFree returns g to its site's free heap.
func (p *Pool) addFree(g *glidein) {
	p.sites[g.siteIdx].free.push(g)
	p.freeCount++
}

// removeFree takes g out of its site's free heap.
func (p *Pool) removeFree(g *glidein) {
	p.sites[g.siteIdx].free.remove(g.heapIdx)
	p.freeCount--
}

// release unbinds g's running job, restoring g to its site's free heap
// unless the glidein is already retired.
func (p *Pool) release(g *glidein) {
	job := g.job
	delete(p.byJob, job)
	g.job, g.schedd = nil, nil
	p.busy--
	if n := p.ownerRunning[job.Owner] - 1; n > 0 {
		p.ownerRunning[job.Owner] = n
	} else {
		delete(p.ownerRunning, job.Owner)
	}
	g.idleAt = p.kernel.Now()
	if !g.retired {
		p.addFree(g)
	}
}

// DrainSite retires every live glidein at the named site, evicting
// running jobs back to their schedds (a site outage beginning). It
// returns how many glideins were drained. Pending requests for the
// site still arrive unless the SiteDown hook reports it down.
func (p *Pool) DrainSite(name string) int {
	var doomed []*glidein
	for _, g := range p.live {
		if g.site.Name == name {
			doomed = append(doomed, g)
		}
	}
	// Ascending id — the seed's scan order — so eviction events land in
	// the user logs in the same order.
	sort.Slice(doomed, func(i, j int) bool { return doomed[i].id < doomed[j].id })
	for _, g := range doomed {
		p.expireGlidein(g)
	}
	if p.obs != nil && len(doomed) > 0 {
		p.obs.Counter("fdw_ospool_glideins_drained_total", "site", name).
			Add(uint64(len(doomed)))
	}
	return len(doomed)
}

// slotGauges refreshes live/busy slot occupancy after pool changes.
func (p *Pool) slotGauges() {
	if p.obs == nil {
		return
	}
	p.met.slotsLive.Set(float64(len(p.live)))
	p.met.slotsBusy.Set(float64(p.busy))
	p.met.pendingSlots.Set(float64(p.pending))
}

// Start arms the provisioning and negotiation tickers.
func (p *Pool) Start() {
	p.stopFns = append(p.stopFns,
		p.kernel.Ticker(0, p.cfg.ProvisionInterval, func(sim.Time) { p.provision() }),
		p.kernel.Ticker(p.cfg.NegotiationInterval/2, p.cfg.NegotiationInterval, func(sim.Time) { p.negotiate() }),
	)
}

// Stop cancels the pool's tickers; in-flight completion events still run.
func (p *Pool) Stop() {
	p.stopped = true
	for _, fn := range p.stopFns {
		fn()
	}
	p.stopFns = nil
}

// Stats returns cumulative pool counters.
func (p *Pool) Stats() (started, completed, evictions int) {
	return p.started, p.completed, p.evictions
}

// WastedSeconds returns cumulative slot time that produced no completed
// work (failed attempts, preemptions, deadline evictions, cancelled
// claims) — the recovery A/B matrix's wasted-CPU metric.
func (p *Pool) WastedSeconds() float64 { return p.wastedSeconds }

// availability is the opportunistic capacity fraction at time t:
// a smooth cycle (other communities' load) with deterministic jitter.
func (p *Pool) availability(t sim.Time) float64 {
	base := (1 + p.cfg.AvailabilityMin) / 2
	amp := (1 - p.cfg.AvailabilityMin) / 2
	v := base + amp*math.Sin(2*math.Pi*float64(t)/float64(p.cfg.AvailabilityPeriod)+p.phase0)
	// Small bounded ripple on top, keyed to the hour so it is reproducible.
	hour := math.Floor(float64(t) / 900)
	ripple := 0.08 * math.Sin(hour*2.399963) // golden-angle hop
	v += ripple
	return math.Max(p.cfg.AvailabilityMin*0.8, math.Min(1, v))
}

// demand counts idle jobs the schedds expose this cycle.
func (p *Pool) demand() int {
	n := 0
	for _, s := range p.schedds {
		n += s.QueueDepth()
	}
	return n
}

// provision requests new glideins when demand exceeds live capacity and
// retires idle pilots that outlived their usefulness.
func (p *Pool) provision() {
	if p.stopped {
		return
	}
	now := p.kernel.Now()

	// Retire expired or long-idle pilots. Only free glideins are
	// eligible, so each site's free heap is exactly the candidate set;
	// busy pilots are handled by their scheduled expiry events.
	var doomed []*glidein
	for i := range p.sites {
		doomed = doomed[:0]
		for _, g := range p.sites[i].free {
			if now >= g.expire || (p.cfg.GlideinIdleTimeout > 0 && now-g.idleAt > p.cfg.GlideinIdleTimeout) {
				doomed = append(doomed, g)
			}
		}
		for _, g := range doomed {
			g.retired = true
			if g.expireEv != nil {
				g.expireEv.Cancel()
				g.expireEv = nil
			}
			p.removeFree(g)
			delete(p.live, g.id)
			p.sites[i].liveCount--
			if p.obs != nil {
				if now >= g.expire {
					p.met.retireExpire.Inc()
				} else {
					p.met.retireIdle.Inc()
				}
			}
		}
	}
	p.slotGauges()

	capacity := int(float64(p.cfg.TotalSlots()) * p.availability(now))
	if p.obs != nil {
		p.met.capacity.Set(float64(capacity))
	}
	desired := p.demand()
	if desired > capacity {
		desired = capacity
	}
	need := desired - len(p.live) - p.pending
	if need <= 0 {
		return
	}
	// Glidein factories respond in batches; cap the burst per cycle.
	maxBurst := p.cfg.TotalSlots() / 8
	if maxBurst < 8 {
		maxBurst = 8
	}
	if need > maxBurst {
		need = maxBurst
	}
	for i := 0; i < need; i++ {
		siteIdx := p.pickSite()
		if siteIdx < 0 {
			break
		}
		p.pending++
		if p.obs != nil {
			p.met.requested[siteIdx].Inc()
		}
		delay := sim.Time(p.rng.Exp(float64(p.cfg.GlideinRampMean)))
		if delay < 30 {
			delay = 30
		}
		p.kernel.After(delay, p.sites[siteIdx].arrive)
	}
}

// siteWeight is one entry in pickSite's weighted draw.
type siteWeight struct {
	idx  int
	free int
}

// pickSite chooses a site (by index) weighted by its remaining slot
// headroom, skipping sites an outage has taken down. Returns -1 when
// no site has headroom.
func (p *Pool) pickSite() int {
	cands := p.siteCands[:0]
	total := 0
	now := p.kernel.Now()
	for i := range p.cfg.Sites {
		s := &p.cfg.Sites[i]
		if p.siteDown != nil && p.siteDown(s.Name, now) {
			continue
		}
		free := s.MaxSlots - p.sites[i].liveCount
		if free > 0 {
			cands = append(cands, siteWeight{i, free})
			total += free
		}
	}
	p.siteCands = cands
	if total == 0 {
		return -1
	}
	pick := p.rng.Intn(total)
	for _, c := range cands {
		if pick < c.free {
			return c.idx
		}
		pick -= c.free
	}
	return cands[len(cands)-1].idx
}

func (p *Pool) glideinArrives(siteIdx int) {
	p.pending--
	if p.stopped {
		return
	}
	st := &p.sites[siteIdx]
	site := st.cfg
	now := p.kernel.Now()
	if p.siteDown != nil && p.siteDown(site.Name, now) {
		// The pilot reached a site that has since gone down: it never
		// reports for duty.
		if p.obs != nil {
			p.met.lost[siteIdx].Inc()
		}
		return
	}
	speed := p.rng.TruncNormal(site.Speed, site.SpeedSD, site.Speed*0.6, site.Speed*1.6)
	g := &glidein{
		id:      p.nextID,
		site:    site,
		siteIdx: siteIdx,
		speed:   speed,
		ad:      st.ad,
		expire:  now + sim.Time(p.rng.Exp(float64(p.cfg.GlideinLifetimeMean))),
		idleAt:  now,
	}
	g.onDone = func(claim uint64) { p.finishClaim(g, claim) }
	g.onExpire = func() { p.expireGlidein(g) }
	p.nextID++
	p.live[g.id] = g
	st.liveCount++
	p.addFree(g)
	if p.obs != nil {
		p.met.arrived[siteIdx].Inc()
		p.slotGauges()
	}
	// Pilot lifetime: if still running a job at expiry, the job is
	// preempted (evicted) and returns to the queue.
	g.expireEv = p.kernel.At(g.expire, g.onExpire)
}

func (p *Pool) expireGlidein(g *glidein) {
	if g.retired {
		return
	}
	g.retired = true
	if g.expireEv != nil {
		g.expireEv.Cancel()
		g.expireEv = nil
	}
	if g.job != nil {
		if g.done != nil {
			g.done.Cancel()
		}
		job, schedd := g.job, g.schedd
		g.done = nil
		p.evictions++
		elapsed := float64(p.kernel.Now() - job.StartTime)
		p.wastedSeconds += elapsed
		if p.obs != nil {
			p.met.preempted[g.siteIdx].Inc()
		}
		if p.recovery != nil {
			p.recovery.AttemptEnded(g.site.Name, job, AttemptPreempted, elapsed, p.kernel.Now())
		}
		p.release(g)
		_ = schedd.MarkEvicted(job)
	} else if g.heapIdx >= 0 {
		p.removeFree(g)
	}
	delete(p.live, g.id)
	p.sites[g.siteIdx].liveCount--
	p.slotGauges()
}

// negotiate runs one fair-share matchmaking cycle. The indexed
// negotiator (negotiateIndexed) is the production path; the
// equivalence property test swaps in the retained seed linear scan
// through p.negotiator.
func (p *Pool) negotiate() {
	if p.stopped {
		return
	}
	if p.obs != nil {
		p.met.cycles.Inc()
	}
	if p.negotiator != nil {
		p.negotiator()
		return
	}
	p.negotiateIndexed()
}

// negotiateIndexed is the fair-share cycle over the matchmaking index:
// per-owner lazy cursors into the schedds' idle queues replace the
// per-cycle queue copy + interleaved merge, and findSlot's per-site
// heap walk replaces the per-job linear scan over every free glidein.
// Match-for-match equivalent to negotiateReference — see DESIGN.md §12
// for the argument, TestIndexedNegotiatorMatchesReference for the
// property check.
func (p *Pool) negotiateIndexed() {
	now := p.kernel.Now()

	// The per-job mask cache can outlive its jobs (claimed jobs are
	// evicted eagerly, but removed/offloaded ones are not); sweep it
	// when it clearly dominates the live idle population.
	idleTotal := p.demand()
	if len(p.maskByJob) > 4*idleTotal+1024 {
		p.maskByJob = make(map[*htcondor.Job][]bool, idleTotal)
	}

	// Owner states persist across cycles in p.negOwners and are reset
	// on their first use in this cycle, so a cycle allocates nothing
	// for owners it has seen before.
	p.negCycle++
	order := p.negOrder[:0]
	for _, s := range p.schedds {
		p.idleOwners = s.AppendIdleOwners(p.idleOwners[:0])
		for _, name := range p.idleOwners {
			no := p.negOwners[name]
			if no == nil {
				no = &negOwner{name: name}
				p.negOwners[name] = no
			}
			if no.cycle != p.negCycle {
				no.cycle = p.negCycle
				no.running = p.ownerRunning[name]
				no.cursors, no.schedds, no.cur = no.cursors[:0], no.schedds[:0], 0
				order = append(order, no)
			}
			no.cursors = append(no.cursors, s.OwnerIdleCursor(name))
			no.schedds = append(no.schedds, s)
		}
	}
	p.negOrder = order
	if len(order) == 0 {
		return
	}
	// Deterministic iteration: owner names are unique.
	slices.SortFunc(order, func(a, b *negOwner) int { return strings.Compare(a.name, b.name) })

	matches := 0
	// Round-robin across owners ordered by effective usage (fewest
	// running first) — HTCondor's fair-share in miniature.
	for matches < p.cfg.MatchesPerCycle && p.freeCount > 0 {
		slices.SortStableFunc(order, func(a, b *negOwner) int { return cmp.Compare(a.running, b.running) })
		progress := false
		for _, no := range order {
			job, schedd := no.peek()
			if job == nil {
				continue
			}
			if matches >= p.cfg.MatchesPerCycle || p.freeCount == 0 {
				break
			}
			g := p.findSlot(job, now)
			no.pop()
			if g == nil {
				// Nothing in the pool matches this job now; skip the
				// owner's head-of-line job this cycle.
				continue
			}
			no.running++
			p.claim(g, job, schedd)
			matches++
			progress = true
		}
		if !progress {
			break
		}
	}
	if p.obs != nil && matches > 0 {
		p.met.matches.Add(uint64(matches))
		p.slotGauges()
	}
}

// hostName returns g's host name, "glidein-<id>.<site>", building it
// on the first claim: a pilot that expires or retires idle is never
// named.
func (p *Pool) hostName(g *glidein) string {
	if g.host == "" {
		b := append(p.scratch[:0], "glidein-"...)
		b = strconv.AppendInt(b, int64(g.id), 10)
		b = append(b, '.')
		b = append(b, g.site.Name...)
		g.host = string(b)
		p.scratch = b
	}
	return g.host
}

// claim starts job on glidein g: input transfer, execution, output.
func (p *Pool) claim(g *glidein, job *htcondor.Job, schedd *htcondor.Schedd) {
	if err := schedd.MarkRunning(job, p.hostName(g)); err != nil {
		return
	}
	if g.heapIdx >= 0 {
		p.removeFree(g)
	}
	g.job = job
	g.schedd = schedd
	g.claim++
	p.byJob[job] = g
	p.busy++
	p.ownerRunning[job.Owner]++
	delete(p.maskByJob, job)
	if p.traceMatch != nil {
		p.traceMatch(job, g)
	}
	p.started++

	transferIn := 0.0
	transferKey := ""
	if p.cache != nil && job.InputBytes > 0 {
		key := job.InputKey
		if key == "" {
			key = fmt.Sprintf("job-%s", job.ID())
		}
		transferKey = key
		transferIn = p.cache.TransferSeconds(g.site.Name, stash.Object{Key: key, Bytes: job.InputBytes})
	}
	exec := job.BaseExecSeconds * g.speed
	if p.cfg.ExecJitterSigma > 0 {
		exec *= p.rng.LogNormal(0, p.cfg.ExecJitterSigma)
	}
	if exec < 1 {
		exec = 1
	}
	transferOut := 0.0
	if p.cache != nil && job.OutputBytes > 0 {
		// Outputs always go back to origin storage (never cached).
		transferOut = 3 + float64(job.OutputBytes)/50e6
	}
	exitCode := 0
	transferAborted := false
	if p.execFault != nil {
		switch fault := p.execFault(g.site.Name, job, p.kernel.Now()); {
		case fault.TransferFail:
			// The attempt dies when the input transfer lands: no
			// execution, no output.
			exitCode = 1
			exec = 0
			transferOut = 0
			transferAborted = true
		case fault.BlackHole:
			exitCode = 1
			exec = blackHoleExecSeconds
			transferOut = 0
		case fault.Fail:
			exitCode = 1
		}
	}
	if transferKey != "" && !transferAborted {
		// Only a delivery that actually lands warms the regional cache;
		// a retry after an aborted transfer pays origin bandwidth again.
		p.cache.Commit(g.site.Name, transferKey)
	}
	if p.recovery != nil {
		p.recovery.AttemptStarted(g.site.Name, job, p.kernel.Now())
	}
	if p.obs != nil {
		now := p.kernel.Now()
		if transferIn > 0 {
			p.met.transferIn.Observe(transferIn)
		}
		if sp := schedd.JobSpan(job); sp != nil {
			sp.AnnotateAt("input_transfer", now, transferIn)
			sp.AnnotateAt("execute", now+sim.Time(transferIn), exec)
		}
	}
	total := sim.Time(transferIn + exec + transferOut)
	g.exitCode = exitCode
	if p.recovery != nil {
		if d := p.recovery.JobDeadlineSeconds(job, p.kernel.Now()); d > 0 && sim.Time(d) < total {
			// The attempt will outrun its wall-clock budget (HTCondor
			// periodic_remove analogue): evict at the deadline instead of
			// letting a black-hole or straggler slot hold the job until
			// the horizon. Deadline evictions do not consume the job's
			// max_retries budget — the job renegotiates like a preemption.
			if g.onDeadline == nil { // built on the first deadline only
				g.onDeadline = func(claim uint64) { p.deadlineClaim(g, claim) }
			}
			g.held = sim.Time(d)
			g.done = p.kernel.AfterArg(g.held, g.onDeadline, g.claim)
			return
		}
	}
	g.held = total
	g.done = p.kernel.AfterArg(total, g.onDone, g.claim)
}

// deadlineClaim evicts g's job when claim number claim reaches its
// recovery deadline.
func (p *Pool) deadlineClaim(g *glidein, claim uint64) {
	if claim != g.claim || g.job == nil {
		return // a stale event of an earlier claim
	}
	g.done = nil
	job, schedd, deadline := g.job, g.schedd, g.held
	p.release(g)
	p.evictions++
	p.wastedSeconds += float64(deadline)
	if p.obs != nil {
		p.met.deadline[g.siteIdx].Inc()
	}
	if p.recovery != nil {
		p.recovery.AttemptEnded(g.site.Name, job, AttemptDeadline, float64(deadline), p.kernel.Now())
	}
	_ = schedd.MarkEvicted(job)
	p.slotGauges()
}

// finishClaim ends claim number claim on g once its transfers and
// execution are done: the job completes, or re-queues for a retry.
func (p *Pool) finishClaim(g *glidein, claim uint64) {
	if claim != g.claim || g.job == nil {
		return // a stale event of an earlier claim
	}
	g.done = nil
	job, schedd, total, exitCode := g.job, g.schedd, g.held, g.exitCode
	p.release(g)
	if exitCode != 0 {
		p.wastedSeconds += float64(total)
	}
	if p.recovery != nil {
		outcome := AttemptOK
		if exitCode != 0 {
			outcome = AttemptFailed
		}
		p.recovery.AttemptEnded(g.site.Name, job, outcome, float64(total), p.kernel.Now())
	}
	if exitCode != 0 && job.Failures < job.MaxRetries {
		// Job-level retry (max_retries): the failed attempt
		// re-queues instead of terminating the job.
		job.Failures++
		p.evictions++
		if p.obs != nil {
			p.met.jobRetries.Inc()
		}
		_ = schedd.MarkEvicted(job)
		return
	}
	p.completed++
	_ = schedd.MarkCompleted(job, exitCode)
	p.slotGauges()
}

// CancelClaim tears down the running claim for j, freeing its glidein
// without changing the job's schedd state — the caller decides what the
// job becomes next (the recovery layer's hedging uses this to reclaim
// the losing attempt's slot before AdoptResult/AbortRunning). The
// slot's elapsed time counts as wasted. It reports whether a running
// claim for j was found.
func (p *Pool) CancelClaim(j *htcondor.Job) bool {
	g := p.byJob[j]
	if g == nil {
		return false
	}
	if g.done != nil {
		g.done.Cancel()
		g.done = nil
	}
	p.release(g)
	p.wastedSeconds += float64(p.kernel.Now() - j.StartTime)
	if p.obs != nil {
		p.met.cancelled[g.siteIdx].Inc()
	}
	p.slotGauges()
	return true
}

// RunUntilDone advances the kernel until every registered schedd has
// drained or the horizon passes; it returns an error on timeout.
// The pool is stopped either way, and every schedd's user log is
// flushed so the on-disk text is complete; the first flush error,
// naming its schedd, wins over a timeout.
//
//lint:allow deadexport pool runner that faults, recovery and root-package fdw tests call
func (p *Pool) RunUntilDone(horizon sim.Time) error {
	allDone := func() bool {
		for _, s := range p.schedds {
			if !s.Done() {
				return false
			}
		}
		return true
	}
	for !allDone() && p.kernel.Now() < horizon {
		if !p.kernel.Step() {
			break
		}
	}
	p.Stop()
	var flushErr error
	for _, s := range p.schedds {
		if err := s.Log().Flush(); err != nil && flushErr == nil {
			flushErr = fmt.Errorf("ospool: flushing %s user log: %w", s.Name, err)
		}
	}
	if flushErr != nil {
		return flushErr
	}
	if !allDone() {
		return fmt.Errorf("ospool: workload not drained by horizon %v (completed %d): %s",
			horizon, p.completed, p.Diagnostic())
	}
	return nil
}

// Diagnostic summarizes queue and pool state (job states, glidein
// counts, open breakers) for horizon timeout errors, so a chaos-sweep
// failure is debuggable from the error string alone.
func (p *Pool) Diagnostic() string {
	var idle, running, held, staged, completed, removed int
	for _, s := range p.schedds {
		staged += s.StagedCount()
		idle += s.QueueDepth()
		for _, j := range s.AllJobs() {
			switch j.Status {
			case htcondor.Running:
				running++
			case htcondor.Held:
				held++
			case htcondor.Completed:
				completed++
			case htcondor.Removed:
				removed++
			}
		}
	}
	msg := fmt.Sprintf("jobs idle=%d running=%d held=%d staged=%d completed=%d removed=%d; glideins live=%d busy=%d pending=%d",
		idle, running, held, staged, completed, removed,
		len(p.live), p.busy, p.pending)
	if p.recovery != nil {
		if open := p.recovery.OpenBreakers(p.kernel.Now()); len(open) > 0 {
			msg += fmt.Sprintf("; open breakers=%v", open)
		}
	}
	return msg
}
