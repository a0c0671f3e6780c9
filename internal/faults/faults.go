// Package faults is a deterministic, sim-clock-driven fault-plan
// engine for the OSPool/HTCondor stack. A Plan scripts the failure
// pathologies the paper's recovery machinery (DAGMan RETRY, rescue
// DAGs, job-level max_retries) exists to survive — site outages,
// glidein black holes, correlated failure bursts, transfer-failure
// windows, and schedd submit errors — and an Injector layers the plan
// onto a pool and its schedds through small injection hooks
// (ospool.Pool.SetSiteDown/SetExecFault, htcondor.Schedd.SubmitGate)
// rather than ad-hoc probability knobs.
//
// Determinism: the injector owns a private sim.RNG stream split from
// the kernel's root, so (a) every probabilistic fault draw is
// reproducible by seed, and (b) attaching an injector never perturbs
// the variate sequences the pool and workflows draw — a run under the
// empty plan is byte-identical to a run with no injector at all.
package faults

import (
	"fmt"

	"fdw/internal/htcondor"
	"fdw/internal/obs"
	"fdw/internal/ospool"
	"fdw/internal/sim"
)

// Window is a half-open simulated-time interval [From, Until).
type Window struct {
	From, Until sim.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t sim.Time) bool { return t >= w.From && t < w.Until }

func (w Window) validate(kind string) error {
	if w.From < 0 || w.Until <= w.From {
		return fmt.Errorf("faults: %s window [%v, %v) is empty or negative", kind, w.From, w.Until)
	}
	return nil
}

// SiteOutage takes a site fully offline for a window: its live
// glideins are drained at From (running jobs evicted back to their
// schedds) and neither the factory nor in-flight pilot requests can
// land there until Until.
type SiteOutage struct {
	Site string
	Window
}

// BlackHole marks a site as a glidein black hole for a window: its
// slots keep accepting jobs but every execution exits non-zero after a
// short constant runtime, so the broken site eats work much faster
// than healthy sites finish it.
type BlackHole struct {
	Site string
	Window
}

// FailureBurst raises the per-execution failure probability everywhere
// during a window — correlated failures from a bad software push or a
// shared-storage hiccup.
type FailureBurst struct {
	Window
	Prob float64
}

// TransferFault fails input transfers with the given probability
// during a window; the affected attempt exits non-zero as the transfer
// lands, having done no work.
type TransferFault struct {
	Window
	Prob float64
}

// SubmitFault makes schedd submissions fail with the given probability
// during a window. DAGMan observes the submit error as a node failure
// and spends RETRY budget on it.
type SubmitFault struct {
	Window
	Prob float64
}

// Plan scripts every fault injected into one run. The zero Plan
// injects nothing.
type Plan struct {
	Name string

	SiteOutages    []SiteOutage
	BlackHoles     []BlackHole
	FailureBursts  []FailureBurst
	TransferFaults []TransferFault
	SubmitFaults   []SubmitFault
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return len(p.SiteOutages) == 0 && len(p.BlackHoles) == 0 &&
		len(p.FailureBursts) == 0 && len(p.TransferFaults) == 0 &&
		len(p.SubmitFaults) == 0
}

// Validate reports malformed windows or probabilities. Site names are
// not checked against a pool: an outage for an unknown site is a
// harmless no-op, which lets one plan serve differently configured
// pools.
func (p Plan) Validate() error {
	for _, o := range p.SiteOutages {
		if o.Site == "" {
			return fmt.Errorf("faults: site outage with empty site")
		}
		if err := o.validate("site-outage"); err != nil {
			return err
		}
	}
	for _, b := range p.BlackHoles {
		if b.Site == "" {
			return fmt.Errorf("faults: black hole with empty site")
		}
		if err := b.validate("black-hole"); err != nil {
			return err
		}
	}
	for _, f := range p.FailureBursts {
		if err := f.validate("failure-burst"); err != nil {
			return err
		}
		if f.Prob <= 0 || f.Prob > 1 {
			return fmt.Errorf("faults: failure-burst probability %v outside (0,1]", f.Prob)
		}
	}
	for _, t := range p.TransferFaults {
		if err := t.validate("transfer-fault"); err != nil {
			return err
		}
		if t.Prob <= 0 || t.Prob > 1 {
			return fmt.Errorf("faults: transfer-fault probability %v outside (0,1]", t.Prob)
		}
	}
	for _, s := range p.SubmitFaults {
		if err := s.validate("submit-fault"); err != nil {
			return err
		}
		if s.Prob <= 0 || s.Prob > 1 {
			return fmt.Errorf("faults: submit-fault probability %v outside (0,1]", s.Prob)
		}
	}
	return nil
}

// Injector binds a validated plan to a kernel. One injector serves one
// simulated environment; its RNG stream is split from the kernel's
// root at construction, so creation order relative to other Split
// calls is part of the reproducible setup.
type Injector struct {
	plan   Plan
	kernel *sim.Kernel
	rng    *sim.RNG
	obs    *obs.Registry
}

// New validates plan and binds it to k.
func New(k *sim.Kernel, plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan, kernel: k, rng: k.RNG().Split(0xfa0175)}, nil
}

// SetObs attaches a metrics registry; injected faults are counted as
// fdw_faults_injected_total{plan,kind}. nil disables instrumentation.
func (in *Injector) SetObs(r *obs.Registry) { in.obs = r }

func (in *Injector) count(kind string) {
	if in.obs != nil {
		in.obs.Counter("fdw_faults_injected_total", "plan", in.plan.Name, "kind", kind).Inc()
	}
}

// Attach wires the injector into a pool and the schedds submitting to
// it: the pool gets the site-down and exec-fault hooks, each schedd
// gets the submit gate, and every site outage schedules a drain event
// at its window start. Call Attach once, before the simulation runs.
func (in *Injector) Attach(p *ospool.Pool, schedds ...*htcondor.Schedd) {
	if in.plan.Empty() {
		return
	}
	p.SetSiteDown(in.siteDown)
	p.SetExecFault(in.execFault)
	for _, o := range in.plan.SiteOutages {
		o := o
		from := o.From
		if now := in.kernel.Now(); from < now {
			from = now
		}
		in.kernel.At(from, func() {
			if n := p.DrainSite(o.Site); n > 0 {
				in.count("site_drain")
			}
		})
	}
	for _, s := range schedds {
		s.SubmitGate = in.submitGate
	}
}

// siteDown reports whether any outage window covers site at t.
func (in *Injector) siteDown(site string, t sim.Time) bool {
	for _, o := range in.plan.SiteOutages {
		if o.Site == site && o.Contains(t) {
			return true
		}
	}
	return false
}

// execFault resolves the injected outcome for one execution attempt.
// Black holes dominate (and draw no randomness); transfer faults are
// tried before generic bursts so a window overlap attributes the
// failure to the most specific cause.
func (in *Injector) execFault(site string, j *htcondor.Job, now sim.Time) ospool.ExecFault {
	var f ospool.ExecFault
	for _, b := range in.plan.BlackHoles {
		if b.Site == site && b.Contains(now) {
			f.BlackHole = true
			in.count("black_hole")
			return f
		}
	}
	for _, t := range in.plan.TransferFaults {
		if t.Contains(now) && in.rng.Bool(t.Prob) {
			f.TransferFail = true
			in.count("transfer_fail")
			return f
		}
	}
	for _, b := range in.plan.FailureBursts {
		if b.Contains(now) && in.rng.Bool(b.Prob) {
			f.Fail = true
			in.count("exec_fail")
			return f
		}
	}
	return f
}

// submitGate is the htcondor.Schedd.SubmitGate hook: it rejects whole
// submissions probabilistically inside submit-fault windows.
func (in *Injector) submitGate(jobs []*htcondor.Job) error {
	now := in.kernel.Now()
	for _, s := range in.plan.SubmitFaults {
		if s.Contains(now) && in.rng.Bool(s.Prob) {
			in.count("submit_error")
			return fmt.Errorf("faults: injected submit failure for %d jobs at %v", len(jobs), now)
		}
	}
	return nil
}

// StandardPlans is the chaos-sweep grid: one plan per failure
// pathology plus a kitchen-sink combination, sized for the paper's
// default OSPool site list (ospool.DefaultConfig). Plans for sites a
// pool does not have degrade to no-ops, so the grid also runs against
// reduced test pools.
func StandardPlans() []Plan {
	hour := sim.Time(3600)
	return []Plan{
		{Name: "baseline"},
		{
			Name: "site-outage",
			SiteOutages: []SiteOutage{
				{Site: "uchicago", Window: Window{From: 1 * hour, Until: 5 * hour}},
			},
		},
		{
			Name: "black-hole",
			BlackHoles: []BlackHole{
				{Site: "sdsc", Window: Window{From: 0, Until: 6 * hour}},
			},
		},
		{
			Name: "failure-burst",
			FailureBursts: []FailureBurst{
				{Window: Window{From: hour / 2, Until: 2 * hour}, Prob: 0.5},
			},
		},
		{
			Name: "transfer-faults",
			TransferFaults: []TransferFault{
				{Window: Window{From: 0, Until: 3 * hour}, Prob: 0.3},
			},
		},
		{
			Name: "submit-errors",
			SubmitFaults: []SubmitFault{
				{Window: Window{From: 0, Until: 2 * hour}, Prob: 0.35},
			},
		},
		{
			Name: "everything",
			SiteOutages: []SiteOutage{
				{Site: "unl", Window: Window{From: 2 * hour, Until: 6 * hour}},
			},
			BlackHoles: []BlackHole{
				{Site: "syracuse", Window: Window{From: hour, Until: 4 * hour}},
			},
			FailureBursts: []FailureBurst{
				{Window: Window{From: 3 * hour, Until: 5 * hour}, Prob: 0.25},
			},
			TransferFaults: []TransferFault{
				{Window: Window{From: 0, Until: 2 * hour}, Prob: 0.15},
			},
			SubmitFaults: []SubmitFault{
				{Window: Window{From: 0, Until: hour}, Prob: 0.2},
			},
		},
	}
}
