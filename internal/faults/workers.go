package faults

import "fmt"

// Worker-level fault plans for the campaign scheduler (internal/sched,
// DESIGN.md §15). Where faults.Plan scripts pathologies *inside* one
// simulated pool, a WorkerPlan scripts pathologies of the fleet that
// runs campaign cells: workers crashing between checkpoints, crashing
// in the narrow window between a durable checkpoint and its ack,
// going silent (heartbeat blackout) while still computing, and
// stragglers that run every cell slower than the rest of the fleet.
// Everything is scripted against deterministic trigger points — cell
// counts and sim-clock windows — never probabilities, so a crash plan
// replays identically on every run.
//
// Worker indexes are 0-based. Like site names in Plan, an index that
// exceeds the fleet size is a harmless no-op: one plan serves any
// worker count, and the scheduler property test sweeps worker counts
// against a fixed plan grid.

// WorkerCrash kills one worker at a deterministic point in its cell
// sequence. Exactly one of three trigger shapes applies:
//
//   - default: the worker dies immediately after checkpointing and
//     acking its AfterCells-th completion (clean crash — durable state
//     and coordinator state agree);
//   - MidCell: the worker dies halfway through running its
//     AfterCells-th cell — nothing was checkpointed, the in-flight
//     result is lost;
//   - BeforeAck: the worker dies after durably checkpointing its
//     AfterCells-th completion but before the ack reaches the
//     coordinator — the classic at-least-once window; recovery must
//     deduplicate by digest, not re-execute blindly.
//
// Each crash fires at most once per scheduler run. The worker rejoins
// RestartAfter sim-seconds later (the scheduler default when zero),
// reloading its durable bundle from disk.
type WorkerCrash struct {
	// Worker is the 0-based index of the worker this crash targets.
	Worker int
	// AfterCells is the 1-based completion (or, with MidCell, cell
	// attempt) count that triggers the crash.
	AfterCells int
	// MidCell kills the worker halfway through its AfterCells-th cell.
	MidCell bool
	// BeforeAck kills the worker between the checkpoint and the ack of
	// its AfterCells-th completion.
	BeforeAck bool
	// RestartAfter overrides the scheduler's restart delay for this
	// crash; zero means the scheduler default.
	RestartAfter float64
}

func (c WorkerCrash) validate() error {
	if c.Worker < 0 {
		return fmt.Errorf("faults: worker crash with negative worker index %d", c.Worker)
	}
	if c.AfterCells < 1 {
		return fmt.Errorf("faults: worker crash with AfterCells %d, want >= 1", c.AfterCells)
	}
	if c.MidCell && c.BeforeAck {
		return fmt.Errorf("faults: worker crash cannot be both MidCell and BeforeAck")
	}
	if c.RestartAfter < 0 {
		return fmt.Errorf("faults: worker crash with negative RestartAfter %v", c.RestartAfter)
	}
	return nil
}

// HeartbeatBlackout silences one worker's heartbeats during a
// sim-clock window. The worker keeps computing — only its control
// plane goes dark — so its leases expire, the coordinator reclaims the
// cells, and the eventual late completions must be arbitrated against
// any re-executions.
type HeartbeatBlackout struct {
	Worker int
	Window
}

// SlowWorker multiplies every cell runtime on one worker by Factor —
// the straggler the hedging policy exists to route around.
type SlowWorker struct {
	Worker int
	// Factor scales the worker's cell runtimes; must be >= 1.
	Factor float64
}

// WorkerPlan scripts every worker-level fault of one scheduler run.
// The zero plan injects nothing.
type WorkerPlan struct {
	Name string

	Crashes   []WorkerCrash
	Blackouts []HeartbeatBlackout
	Slow      []SlowWorker
}

// Validate reports malformed crash triggers, windows, or slowdown
// factors. Worker indexes are not checked against a fleet size: an
// index past the fleet is a no-op, so one plan serves any worker
// count.
func (p WorkerPlan) Validate() error {
	for _, c := range p.Crashes {
		if err := c.validate(); err != nil {
			return err
		}
	}
	for _, b := range p.Blackouts {
		if b.Worker < 0 {
			return fmt.Errorf("faults: heartbeat blackout with negative worker index %d", b.Worker)
		}
		if err := b.validate("heartbeat-blackout"); err != nil {
			return err
		}
	}
	for _, s := range p.Slow {
		if s.Worker < 0 {
			return fmt.Errorf("faults: slow worker with negative index %d", s.Worker)
		}
		if s.Factor < 1 {
			return fmt.Errorf("faults: slow worker factor %v, want >= 1", s.Factor)
		}
	}
	return nil
}

// StandardWorkerPlans is the scheduler chaos grid: the worker-failure
// pathologies federated fleets exhibit, one plan per pathology plus a
// clean baseline and a kitchen sink. The scheduler property test runs
// every plan at every worker count and steal policy and requires
// byte-identical merged output throughout.
func StandardWorkerPlans() []WorkerPlan {
	const hour = 3600
	return []WorkerPlan{
		{Name: "none"},
		{
			Name:    "crash-early",
			Crashes: []WorkerCrash{{Worker: 0, AfterCells: 1}},
		},
		{
			Name:    "crash-midcell",
			Crashes: []WorkerCrash{{Worker: 1, AfterCells: 2, MidCell: true}},
		},
		{
			Name:    "crash-before-ack",
			Crashes: []WorkerCrash{{Worker: 0, AfterCells: 2, BeforeAck: true}},
		},
		{
			Name:      "blackout",
			Blackouts: []HeartbeatBlackout{{Worker: 1, Window: Window{From: 0, Until: 4000 * hour}}},
		},
		{
			Name: "straggler",
			Slow: []SlowWorker{{Worker: 2, Factor: 20}},
		},
		{
			Name: "crash-storm",
			Crashes: []WorkerCrash{
				{Worker: 0, AfterCells: 1},
				{Worker: 1, AfterCells: 1, MidCell: true},
				{Worker: 2, AfterCells: 1, BeforeAck: true},
				{Worker: 3, AfterCells: 2},
			},
		},
		{
			Name: "everything",
			Crashes: []WorkerCrash{
				{Worker: 0, AfterCells: 1, BeforeAck: true},
				{Worker: 1, AfterCells: 2, MidCell: true},
			},
			Blackouts: []HeartbeatBlackout{{Worker: 2, Window: Window{From: 0, Until: 4000 * hour}}},
			Slow:      []SlowWorker{{Worker: 3, Factor: 12}},
		},
	}
}

// WorkerPlanByName finds a standard worker plan; "" and "none" both
// name the empty plan.
func WorkerPlanByName(name string) (WorkerPlan, error) {
	if name == "" {
		name = "none"
	}
	var names []string
	for _, p := range StandardWorkerPlans() {
		if p.Name == name {
			return p, nil
		}
		names = append(names, p.Name)
	}
	return WorkerPlan{}, fmt.Errorf("faults: unknown worker plan %q (have %v)", name, names)
}
