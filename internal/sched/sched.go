// Package sched is the fault-tolerant campaign scheduler: a
// deterministic, sim-clock-driven coordinator that drives N logical
// workers over a shardable campaign's cells, using the manifest-bundle
// machinery (internal/expt, DESIGN.md §13) as its only durable state.
//
// The control plane is a discrete-event simulation on its own
// sim.Kernel — distinct from the kernels inside each cell's
// simulation. A cell's control-plane duration is its simulated
// makespan (the manifest's per-cell SimEnd), optionally stretched by a
// slow-worker factor, so fleet dynamics (who finishes first, which
// lease expires when) play out in the same simulated time base the
// cells themselves report.
//
// Protocol (DESIGN.md §16):
//
//   - the coordinator leases cells to idle workers in canonical cell
//     order, worker index order breaking ties; a lease carries a TTL
//     and is renewed by worker heartbeats;
//   - a worker checkpoints its bundle atomically after every completed
//     cell, then acks; checkpoint-before-ack makes the protocol
//     at-least-once, and digest arbitration makes it exactly-once;
//   - when heartbeats stop (crash, blackout) the lease expires and the
//     cell is requeued — to any worker under work-stealing, reserved
//     for its original worker otherwise;
//   - duplicate completions (steal races, hedged stragglers, late acks
//     after a blackout, recovered checkpoints) are arbitrated by digest
//     equality; a mismatch is a hard error naming the cell and both
//     digests, never silent last-write-wins;
//   - crashed workers restart after a delay and re-report completions
//     recovered from their durable bundle.
//
// Every scheduling decision is a deterministic function of the crash
// plan, worker count, and steal policy; no randomness enters the
// control plane. Since cell results are deterministic per cell id and
// the final report is produced by the same finalize code path as an
// unsharded run, the merged report and CSV are byte-identical to the
// unsharded run for every crash schedule — the property the sched
// tests pin.
package sched

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"fdw/internal/expt"
	"fdw/internal/faults"
	"fdw/internal/obs"
	"fdw/internal/sim"
)

// Source is the campaign a scheduler run drives: stable canonical cell
// ids, an options fingerprint for bundle compatibility checks, and a
// deterministic per-cell runner. expt.CampaignHandle implements it;
// tests substitute scripted fakes and Memoize wraps any Source with a
// result cache.
type Source interface {
	Name() string
	Fingerprint() string
	CellIDs() []string
	RunCell(id string) (expt.CellRecord, error)
}

// Config parameterizes one scheduler run.
type Config struct {
	// Workers is the logical fleet size (>= 1).
	Workers int
	// Steal lets reclaimed cells go to any idle worker; without it a
	// reclaimed cell stays reserved for the worker that lost it.
	Steal bool
	// Hedge duplicates a straggling cell onto an idle worker once its
	// lease has been held longer than hedgeFactor (4) times the longest
	// completed cell; the duplicate completions are digest-arbitrated.
	Hedge bool
	// Plan scripts worker-level faults (the zero plan injects none).
	Plan faults.WorkerPlan
	// Dir is the worker-bundle directory (required).
	Dir string
	// MaxCells, when positive, halts the coordinator after that many
	// acked completions — the deterministic model of a mid-run
	// coordinator kill. Run returns expt.ErrIncomplete; a Resume run
	// over the same Dir finishes the campaign from bundles alone.
	MaxCells int
	// Resume loads existing worker bundles from Dir instead of starting
	// fresh.
	Resume bool
	// Obs, when set, receives lease/steal/requeue/crash counters and
	// per-worker cell spans; Run binds it to the control-plane clock.
	// Purely passive: scheduling decisions never read it, and output
	// bytes are identical with it on or off.
	Obs *obs.Registry
}

// Lease timing, in control-plane sim-seconds.
const (
	// leaseTTL is how long a lease survives without a heartbeat renewal.
	leaseTTL sim.Time = 1800
	// heartbeatPeriod is the lease renewal period.
	heartbeatPeriod = leaseTTL / 3
	// restartDelay is how long a crashed worker stays down unless its
	// WorkerCrash overrides it.
	restartDelay = 2 * leaseTTL
	// hedgeFactor is the lease-age multiple of the longest completed
	// cell that marks a straggler.
	hedgeFactor = 4
)

func (c Config) validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("sched: %d workers, want >= 1", c.Workers)
	}
	if c.Dir == "" {
		return fmt.Errorf("sched: no bundle directory")
	}
	if c.MaxCells < 0 {
		return fmt.Errorf("sched: negative cell budget %d", c.MaxCells)
	}
	return c.Plan.Validate()
}

// Stats counts one run's control-plane events.
type Stats struct {
	LeasesGranted    uint64 `json:"leases_granted"`
	LeasesRenewed    uint64 `json:"leases_renewed"`
	LeasesExpired    uint64 `json:"leases_expired"`
	CellsRequeued    uint64 `json:"cells_requeued"`
	CellsStolen      uint64 `json:"cells_stolen"`
	CellsHedged      uint64 `json:"cells_hedged"`
	Duplicates       uint64 `json:"duplicate_completions"`
	AcksLate         uint64 `json:"late_acks"`
	Recovered        uint64 `json:"recovered_completions"`
	Checkpoints      uint64 `json:"checkpoints"`
	CheckpointsTorn  uint64 `json:"torn_checkpoints"`
	WorkerCrashes    uint64 `json:"worker_crashes"`
	WorkerRestarts   uint64 `json:"worker_restarts"`
	HeartbeatsMissed uint64 `json:"missed_heartbeats"`
}

// Result is a finished (or budget-halted) scheduler run.
type Result struct {
	Campaign string
	Workers  int
	// Records is the arbitrated exactly-once ledger, one record per
	// completed cell; feed it to CampaignHandle.Finalize for the
	// byte-identical report.
	Records map[string]expt.CellRecord
	Stats   Stats
	// Makespan is the control-plane clock at termination.
	Makespan sim.Time
	// BundlePaths lists the per-worker durable bundles, worker order.
	BundlePaths []string
}

// WorkerBundlePath is the conventional bundle name for worker index
// (0-based) of a fleet.
func WorkerBundlePath(dir, campaign string, worker, workers int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.worker%dof%d.json", campaign, worker+1, workers))
}

// maxCheckpointFails bounds consecutive torn checkpoints per worker
// before the run fails loudly instead of crash-looping.
const maxCheckpointFails = 3

type workerState int

const (
	workerIdle workerState = iota
	workerBusy
	workerDown
)

// assignment is one live lease: a cell granted to a worker, with its
// expiry event and renewal history.
type assignment struct {
	cell     string
	worker   int
	granted  sim.Time
	renewals int
	hedged   bool
	expired  bool
	expiry   *sim.Event
}

type worker struct {
	id     int
	bundle string
	slow   float64

	state       workerState
	done        map[string]expt.CellRecord // durably checkpointed completions
	completions int                        // len(done); the crash-trigger odometer

	cur        *assignment
	rec        expt.CellRecord // computed result of the in-flight cell
	dur        sim.Time
	completion *sim.Event
	midCrash   *sim.Event
	hbStop     func()
	span       *obs.Span

	checkpointFails int
}

type scheduler struct {
	cfg Config
	src Source
	k   *sim.Kernel

	ids []string
	pos map[string]int

	pending    map[string]int // queued cell -> reserved worker id (-1 = any)
	holders    map[string][]*assignment
	lastHolder map[string]int
	done       map[string]expt.CellRecord
	doneBy     map[string]int
	workers    []*worker
	crashSpent []bool // parallel to cfg.Plan.Crashes; each fires once

	stats     Stats
	maxDur    sim.Time // longest acked cell SimEnd — the hedge baseline
	acked     int
	halted    bool
	budgetHit bool
	err       error
}

// Run drives src's cells to completion under cfg, returning the
// arbitrated exactly-once record set. A MaxCells budget halt returns
// the partial Result alongside expt.ErrIncomplete.
func Run(src Source, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ids := src.CellIDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("sched: campaign %s has no cells", src.Name())
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &scheduler{
		cfg:        cfg,
		src:        src,
		k:          sim.NewKernel(1),
		ids:        ids,
		pos:        make(map[string]int, len(ids)),
		pending:    make(map[string]int, len(ids)),
		holders:    map[string][]*assignment{},
		lastHolder: map[string]int{},
		done:       make(map[string]expt.CellRecord, len(ids)),
		doneBy:     map[string]int{},
		crashSpent: make([]bool, len(cfg.Plan.Crashes)),
	}
	for i, id := range ids {
		s.pos[id] = i
		s.pending[id] = -1
	}
	// Cells meter into their own registries, so the control clock
	// stamps everything Obs records from here on.
	if cfg.Obs != nil {
		cfg.Obs.SetClock(s.k.Now)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			id:     i,
			bundle: WorkerBundlePath(cfg.Dir, src.Name(), i, cfg.Workers),
			slow:   slowFactor(cfg.Plan, i),
			done:   map[string]expt.CellRecord{},
		}
		if cfg.Resume {
			if err := s.loadBundle(w); err != nil {
				return nil, err
			}
		}
		s.workers = append(s.workers, w)
	}

	// Join at t=0: every worker writes its durable bundle (so even a
	// worker that never completes a cell leaves a mergeable empty
	// bundle), reports completions recovered from a Resume load, and
	// retires crash triggers its recovered odometer has already passed.
	for _, w := range s.workers {
		if err := s.checkpoint(w); err != nil {
			return nil, fmt.Errorf("sched: worker %d initial checkpoint: %w", w.id, err)
		}
		s.spendPassedCrashes(w)
		s.reportRecovered(w)
		if s.err != nil {
			return nil, s.err
		}
		if s.halted {
			break
		}
	}
	if !s.halted {
		s.dispatch()
	}
	for s.err == nil && !s.halted && s.k.Step() {
	}
	if s.err != nil {
		return nil, s.err
	}

	res := &Result{
		Campaign: src.Name(),
		Workers:  cfg.Workers,
		Records:  make(map[string]expt.CellRecord, len(s.done)),
		Stats:    s.stats,
		Makespan: s.k.Now(),
	}
	for _, id := range s.ids {
		if rec, ok := s.done[id]; ok {
			res.Records[id] = rec
		}
	}
	for _, w := range s.workers {
		res.BundlePaths = append(res.BundlePaths, w.bundle)
	}
	if len(s.done) < len(s.ids) {
		if !s.budgetHit {
			return nil, fmt.Errorf("sched: stalled with %d of %d cells incomplete", len(s.ids)-len(s.done), len(s.ids))
		}
		return res, fmt.Errorf("%w: %d of %d cells acked (budget %d; rerun with Resume over %s)",
			expt.ErrIncomplete, len(s.done), len(s.ids), cfg.MaxCells, cfg.Dir)
	}
	return res, nil
}

func (s *scheduler) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *scheduler) planName() string {
	if s.cfg.Plan.Name == "" {
		return "none"
	}
	return s.cfg.Plan.Name
}

func (s *scheduler) counter(name string, kv ...string) *obs.Counter {
	if s.cfg.Obs == nil {
		return new(obs.Counter) // zero Counter: Add/Inc are no-ops
	}
	kv = append(kv, "plan", s.planName())
	return s.cfg.Obs.Counter(name, kv...)
}

func (s *scheduler) busyGauge() {
	if s.cfg.Obs == nil {
		return
	}
	busy := 0
	for _, w := range s.workers {
		if w.state == workerBusy {
			busy++
		}
	}
	s.cfg.Obs.Gauge("fdw_sched_workers_busy", "plan", s.planName()).Set(float64(busy))
}

// slowFactor is the straggler multiplier for a worker (>= 1).
func slowFactor(p faults.WorkerPlan, id int) float64 {
	f := 1.0
	for _, sw := range p.Slow {
		if sw.Worker == id && sw.Factor > f {
			f = sw.Factor
		}
	}
	return f
}

func (s *scheduler) blackedOut(id int, t sim.Time) bool {
	for _, b := range s.cfg.Plan.Blackouts {
		if b.Worker == id && b.Contains(t) {
			return true
		}
	}
	return false
}

// matchCrash returns the index of the first unspent crash for worker
// id that satisfies the trigger predicate, or -1.
func (s *scheduler) matchCrash(id int, trigger func(faults.WorkerCrash) bool) int {
	for i, c := range s.cfg.Plan.Crashes {
		if !s.crashSpent[i] && c.Worker == id && trigger(c) {
			return i
		}
	}
	return -1
}

// spendPassedCrashes retires crash triggers whose completion count the
// worker's recovered odometer has already passed — a restart must not
// replay a crash that durably happened before the coordinator died.
func (s *scheduler) spendPassedCrashes(w *worker) {
	for i, c := range s.cfg.Plan.Crashes {
		if c.Worker == w.id && c.AfterCells <= w.completions {
			s.crashSpent[i] = true
		}
	}
}

// dispatch hands queued cells to idle workers: workers in index order,
// each taking the first queued cell (canonical order) that is
// unreserved or reserved for it.
func (s *scheduler) dispatch() {
	if s.halted || s.err != nil {
		return
	}
	for _, w := range s.workers {
		if w.state != workerIdle {
			continue
		}
		cell, ok := s.nextCellFor(w.id)
		if !ok {
			continue
		}
		s.assign(w, cell)
		if s.halted || s.err != nil {
			return
		}
	}
	s.busyGauge()
}

func (s *scheduler) nextCellFor(id int) (string, bool) {
	for _, cell := range s.ids {
		if reserved, ok := s.pending[cell]; ok && (reserved < 0 || reserved == id) {
			return cell, true
		}
	}
	return "", false
}

// assign leases cell to w and starts the cell running: the result is
// computed host-side now (deterministically), the completion lands on
// the control clock after the cell's simulated makespan.
func (s *scheduler) assign(w *worker, cell string) {
	delete(s.pending, cell)
	now := s.k.Now()
	a := &assignment{cell: cell, worker: w.id, granted: now}
	s.holders[cell] = append(s.holders[cell], a)
	if last, ok := s.lastHolder[cell]; ok && last != w.id {
		s.stats.CellsStolen++
		s.counter("fdw_sched_cells_stolen_total").Inc()
	}
	s.lastHolder[cell] = w.id
	s.stats.LeasesGranted++
	s.counter("fdw_sched_leases_granted_total").Inc()
	w.state = workerBusy
	w.cur = a

	rec, err := s.src.RunCell(cell)
	if err != nil {
		s.fail(fmt.Errorf("sched: cell %q on worker %d: %w", cell, w.id, err))
		return
	}
	w.rec = rec
	dur := sim.Time(float64(rec.SimEnd) * w.slow)
	if dur <= 0 {
		dur = 1
	}
	w.dur = dur
	if s.cfg.Obs != nil {
		w.span = s.cfg.Obs.StartSpan("sched_cell", fmt.Sprintf("w%d/%s", w.id, cell))
	}
	a.expiry = s.k.After(leaseTTL, func() { s.expire(a) })
	w.hbStop = s.k.Ticker(now+heartbeatPeriod, heartbeatPeriod, func(sim.Time) { s.heartbeat(w, a) })
	w.completion = s.k.After(dur, func() { s.complete(w) })
	if ci := s.matchCrash(w.id, func(c faults.WorkerCrash) bool {
		return c.MidCell && c.AfterCells == w.completions+1
	}); ci >= 0 {
		s.crashSpent[ci] = true
		restartAfter := s.cfg.Plan.Crashes[ci].RestartAfter
		w.midCrash = s.k.After(dur/2, func() { s.crash(w, restartAfter, "mid-cell") })
	}
}

// heartbeat renews w's lease unless the worker is blacked out. Renewal
// is also where straggler hedging is evaluated: lease age is the only
// signal the coordinator has about a slow worker.
func (s *scheduler) heartbeat(w *worker, a *assignment) {
	if w.state != workerBusy || w.cur != a {
		return
	}
	if s.blackedOut(w.id, s.k.Now()) {
		s.stats.HeartbeatsMissed++
		s.counter("fdw_sched_heartbeats_missed_total").Inc()
		return
	}
	if a.expired {
		// The lease was reclaimed during a blackout; the worker keeps
		// computing and its completion will arrive as a late ack.
		return
	}
	a.renewals++
	s.stats.LeasesRenewed++
	a.expiry.Cancel()
	a.expiry = s.k.After(leaseTTL, func() { s.expire(a) })
	s.maybeHedge(a)
}

func (s *scheduler) maybeHedge(a *assignment) {
	if !s.cfg.Hedge || a.hedged || s.maxDur <= 0 {
		return
	}
	if _, done := s.done[a.cell]; done {
		return
	}
	if float64(s.k.Now()-a.granted) <= hedgeFactor*float64(s.maxDur) {
		return
	}
	for _, other := range s.workers {
		if other.state == workerIdle {
			a.hedged = true
			s.stats.CellsHedged++
			s.counter("fdw_sched_cells_hedged_total").Inc()
			s.assign(other, a.cell)
			s.busyGauge()
			return
		}
	}
}

// expire fires when a lease's TTL lapses without renewal: the cell is
// reclaimed and — unless it is done, already queued, or still covered
// by another live lease — requeued, reserved for its original worker
// unless work-stealing is on.
func (s *scheduler) expire(a *assignment) {
	a.expired = true
	a.expiry = nil
	s.stats.LeasesExpired++
	s.counter("fdw_sched_leases_expired_total").Inc()
	s.dropHolder(a)
	if _, done := s.done[a.cell]; done {
		return
	}
	if _, queued := s.pending[a.cell]; queued {
		return
	}
	if len(s.holders[a.cell]) > 0 {
		return
	}
	reserve := -1
	if !s.cfg.Steal {
		reserve = a.worker
	}
	s.pending[a.cell] = reserve
	s.stats.CellsRequeued++
	s.counter("fdw_sched_cells_requeued_total").Inc()
	s.dispatch()
}

func (s *scheduler) dropHolder(a *assignment) {
	hs := s.holders[a.cell]
	for i, h := range hs {
		if h == a {
			s.holders[a.cell] = append(hs[:i], hs[i+1:]...)
			break
		}
	}
	if len(s.holders[a.cell]) == 0 {
		delete(s.holders, a.cell)
	}
}

// complete fires when a worker finishes computing its cell: durable
// checkpoint first, ack second — the at-least-once order the recovery
// path depends on.
func (s *scheduler) complete(w *worker) {
	w.completion = nil
	a := w.cur
	rec := w.rec
	w.done[rec.ID] = rec
	w.completions++
	if err := s.checkpoint(w); err != nil {
		// A failed bundle write is a torn checkpoint: atomicfile left
		// the previous complete bundle on disk, so the death of this
		// worker loses only the in-flight cell. Model it as a crash and
		// recover from the last durable state.
		delete(w.done, rec.ID)
		w.completions--
		w.checkpointFails++
		s.stats.CheckpointsTorn++
		s.counter("fdw_sched_torn_checkpoints_total").Inc()
		if w.checkpointFails >= maxCheckpointFails {
			s.fail(fmt.Errorf("sched: worker %d failed %d consecutive checkpoints: %w", w.id, w.checkpointFails, err))
			return
		}
		s.crash(w, 0, "torn-checkpoint")
		return
	}
	w.checkpointFails = 0
	s.stats.Checkpoints++
	s.counter("fdw_sched_checkpoints_total").Inc()

	if ci := s.matchCrash(w.id, func(c faults.WorkerCrash) bool {
		return c.BeforeAck && c.AfterCells == w.completions
	}); ci >= 0 {
		s.crashSpent[ci] = true
		s.crash(w, s.cfg.Plan.Crashes[ci].RestartAfter, "before-ack")
		return
	}

	late := a.expired
	s.finishCell(w, "complete")
	if late {
		s.stats.AcksLate++
		s.counter("fdw_sched_late_acks_total").Inc()
	}
	s.deliver(w.id, rec)
	if s.halted || s.err != nil {
		return
	}
	if ci := s.matchCrash(w.id, func(c faults.WorkerCrash) bool {
		return !c.MidCell && !c.BeforeAck && c.AfterCells == w.completions
	}); ci >= 0 {
		s.crashSpent[ci] = true
		s.crash(w, s.cfg.Plan.Crashes[ci].RestartAfter, "after-cells")
		return
	}
	s.dispatch()
}

// finishCell releases w's assignment bookkeeping and returns it to the
// idle pool.
func (s *scheduler) finishCell(w *worker, status string) {
	a := w.cur
	if a == nil {
		return
	}
	if a.expiry != nil {
		a.expiry.Cancel()
		a.expiry = nil
	}
	if !a.expired {
		s.dropHolder(a)
	}
	if w.hbStop != nil {
		w.hbStop()
		w.hbStop = nil
	}
	if w.span != nil {
		w.span.End(status)
		w.span = nil
	}
	w.cur = nil
	w.rec = expt.CellRecord{}
	w.state = workerIdle
}

// deliver is the coordinator-side ack: first completion wins the
// ledger slot, duplicates must agree by digest.
func (s *scheduler) deliver(wid int, rec expt.CellRecord) {
	if prev, ok := s.done[rec.ID]; ok {
		s.stats.Duplicates++
		s.counter("fdw_sched_duplicate_completions_total").Inc()
		if prev.Digest != rec.Digest {
			s.fail(fmt.Errorf("sched: cell %q completed twice with conflicting digests: %s (worker %d) vs %s (worker %d) — refusing last-write-wins",
				rec.ID, prev.Digest, s.doneBy[rec.ID], rec.Digest, wid))
		}
		return
	}
	s.done[rec.ID] = rec
	s.doneBy[rec.ID] = wid
	delete(s.pending, rec.ID)
	s.acked++
	s.counter("fdw_sched_cells_completed_total").Inc()
	if rec.SimEnd > s.maxDur {
		s.maxDur = rec.SimEnd
	}
	if len(s.done) == len(s.ids) {
		s.halted = true
		return
	}
	if s.cfg.MaxCells > 0 && s.acked >= s.cfg.MaxCells {
		s.halted = true
		s.budgetHit = true
	}
}

// crash kills a worker. Its in-flight lease is deliberately NOT
// released: the coordinator only learns of the death when heartbeats
// stop and the lease expires. The worker restarts from its durable
// bundle after the delay.
func (s *scheduler) crash(w *worker, restartAfter float64, cause string) {
	s.stats.WorkerCrashes++
	s.counter("fdw_sched_worker_crashes_total", "cause", cause).Inc()
	if w.completion != nil {
		w.completion.Cancel()
		w.completion = nil
	}
	if w.midCrash != nil {
		w.midCrash.Cancel()
		w.midCrash = nil
	}
	if w.hbStop != nil {
		w.hbStop()
		w.hbStop = nil
	}
	if w.span != nil {
		w.span.End("crashed:" + cause)
		w.span = nil
	}
	w.cur = nil
	w.rec = expt.CellRecord{}
	w.state = workerDown
	s.busyGauge()
	delay := sim.Time(restartAfter)
	if delay <= 0 {
		delay = restartDelay
	}
	s.k.After(delay, func() { s.restart(w) })
}

// restart brings a crashed worker back: it reloads its durable bundle
// — in-memory state is gone by definition — and re-reports every
// checkpointed completion, so an ack lost to a before-ack crash is
// recovered through digest arbitration instead of re-execution.
func (s *scheduler) restart(w *worker) {
	s.stats.WorkerRestarts++
	s.counter("fdw_sched_worker_restarts_total").Inc()
	if err := s.loadBundle(w); err != nil {
		s.fail(err)
		return
	}
	s.spendPassedCrashes(w)
	w.state = workerIdle
	s.reportRecovered(w)
	if s.err != nil || s.halted {
		return
	}
	s.dispatch()
}

// reportRecovered replays w's durable completions to the coordinator:
// unknown cells are delivered (the lost-ack recovery path), known ones
// are digest-checked.
func (s *scheduler) reportRecovered(w *worker) {
	for _, id := range s.ids {
		rec, ok := w.done[id]
		if !ok {
			continue
		}
		if prev, known := s.done[id]; known {
			if prev.Digest != rec.Digest {
				s.fail(fmt.Errorf("sched: cell %q completed twice with conflicting digests: %s (worker %d) vs %s (worker %d, recovered) — refusing last-write-wins",
					id, prev.Digest, s.doneBy[id], rec.Digest, w.id))
				return
			}
			continue
		}
		s.stats.Recovered++
		s.counter("fdw_sched_recovered_completions_total").Inc()
		s.deliver(w.id, rec)
		if s.err != nil || s.halted {
			return
		}
	}
}

// checkpoint atomically rewrites w's durable bundle: a leased
// CampaignManifest holding its checkpointed cells in canonical order.
func (s *scheduler) checkpoint(w *worker) error {
	return expt.NewBundle(s.src.Name(), s.src.Fingerprint(), s.slot(w), true, s.ids, w.done).WriteFile(w.bundle)
}

// loadBundle restores w's durable state from disk; a missing bundle is
// a fresh worker.
func (s *scheduler) loadBundle(w *worker) error {
	m, err := expt.LoadBundle(w.bundle, s.src.Name(), s.src.Fingerprint(), s.slot(w), true, s.pos)
	if err != nil {
		return fmt.Errorf("sched: worker %d bundle: %w", w.id, err)
	}
	w.done = make(map[string]expt.CellRecord, len(m.Cells))
	for _, rec := range m.Cells {
		w.done[rec.ID] = rec
	}
	w.completions = len(w.done)
	return nil
}

// slot is w's 1-based place in the fleet, as its bundle records it.
func (s *scheduler) slot(w *worker) expt.ShardSpec {
	return expt.ShardSpec{Index: w.id + 1, Total: s.cfg.Workers}
}

// Memoize wraps a Source with a per-cell result cache. Sources are
// deterministic per cell id, so memoization is observationally
// invisible; it exists so drivers that legitimately re-run cells
// (steal re-execution, hedged duplicates, the A/B matrix sweeping many
// plans over one campaign) pay each cell's simulation once.
func Memoize(src Source) Source {
	return &memoSource{src: src, cache: map[string]expt.CellRecord{}}
}

type memoSource struct {
	src   Source
	mu    sync.Mutex
	cache map[string]expt.CellRecord
}

func (m *memoSource) Name() string        { return m.src.Name() }
func (m *memoSource) Fingerprint() string { return m.src.Fingerprint() }
func (m *memoSource) CellIDs() []string   { return m.src.CellIDs() }

func (m *memoSource) RunCell(id string) (expt.CellRecord, error) {
	m.mu.Lock()
	rec, ok := m.cache[id]
	m.mu.Unlock()
	if ok {
		return rec, nil
	}
	rec, err := m.src.RunCell(id)
	if err != nil {
		return expt.CellRecord{}, err
	}
	m.mu.Lock()
	m.cache[id] = rec
	m.mu.Unlock()
	return rec, nil
}
