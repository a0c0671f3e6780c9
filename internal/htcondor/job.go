// Package htcondor reimplements the slice of HTCondor that FDW relies
// on: jobs with ClassAd attributes, submit-description files, a schedd
// (job queue) driven by the simulation kernel, and the user event log
// whose text format FDW's monitoring scripts parse.
package htcondor

import (
	"fmt"

	"fdw/internal/classad"
	"fdw/internal/sim"
)

// JobStatus is the HTCondor job state machine (numeric values follow
// HTCondor's JobStatus attribute).
type JobStatus int

// Job states, in HTCondor's numbering.
const (
	Idle      JobStatus = 1
	Running   JobStatus = 2
	Removed   JobStatus = 3
	Completed JobStatus = 4
	Held      JobStatus = 5
)

func (s JobStatus) String() string {
	switch s {
	case Idle:
		return "idle"
	case Running:
		return "running"
	case Removed:
		return "removed"
	case Completed:
		return "completed"
	case Held:
		return "held"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

// Job is one queued unit of work.
type Job struct {
	Cluster int
	Proc    int
	Owner   string // submitting user/DAGMan identity (fair-share key)

	Executable string
	Arguments  string

	RequestCpus     int
	RequestMemoryMB int
	RequestDiskMB   int
	Requirements    string // ClassAd source; empty means "match anything"

	// Attrs carries +CustomAttributes from the submit file plus the
	// Request* values for matchmaking.
	Attrs classad.Ad

	// InputBytes/OutputBytes drive the Stash-cache transfer model.
	// InputKey identifies the shared input artifact (image + matrices);
	// jobs of one phase share a key, so after the first fetch at a site
	// the regional cache is warm.
	InputBytes  int64
	OutputBytes int64
	InputKey    string

	// BaseExecSeconds is the nominal execution time on a reference
	// 4-core OSPool slot; sites scale it by their speed factor.
	BaseExecSeconds float64

	// MaxRetries is the job-level retry budget (HTCondor max_retries):
	// a non-zero exit re-queues the job until the budget is spent.
	MaxRetries int

	// Mutable state, owned by the Schedd.
	Status     JobStatus
	SubmitTime sim.Time
	StartTime  sim.Time
	EndTime    sim.Time
	Site       string
	ExitCode   int
	Evictions  int
	Failures   int

	// matchAd memoizes MatchAd. Requirements, Request*, Owner, and
	// Attrs are fixed once a job is handed to Submit (the schedd only
	// mutates the state block above), so the ad is built at most once
	// per job instead of once per matchmaking probe.
	matchAd classad.Ad

	// fifoIdx is the job's position in its owner's idle queue
	// (jobFIFO); maintained by the owning schedd only.
	fifoIdx int
}

// ID renders the HTCondor "cluster.proc" identifier.
func (j *Job) ID() string { return fmt.Sprintf("%d.%d", j.Cluster, j.Proc) }

// WaitSeconds returns queue wait (start - submit) for started jobs.
func (j *Job) WaitSeconds() float64 {
	if j.StartTime < j.SubmitTime {
		return 0
	}
	return float64(j.StartTime - j.SubmitTime)
}

// ExecSeconds returns wall execution time for finished jobs.
func (j *Job) ExecSeconds() float64 {
	if j.EndTime < j.StartTime {
		return 0
	}
	return float64(j.EndTime - j.StartTime)
}

// MatchAd builds the ad used as MY during matchmaking. The ad is
// memoized (matchmaking attributes are immutable after submission);
// callers must not mutate it.
func (j *Job) MatchAd() classad.Ad {
	if j.matchAd != nil {
		return j.matchAd
	}
	ad := classad.Ad{
		"RequestCpus":   classad.Number(float64(j.RequestCpus)),
		"RequestMemory": classad.Number(float64(j.RequestMemoryMB)),
		"RequestDisk":   classad.Number(float64(j.RequestDiskMB)),
		"Owner":         classad.String(j.Owner),
	}
	for k, v := range j.Attrs {
		ad[k] = v
	}
	j.matchAd = ad
	return ad
}

// Matches evaluates the job's Requirements against a machine ad,
// and the machine's own requirements (Start expression) if present.
func (j *Job) Matches(machine classad.Ad) (bool, error) {
	if j.RequestCpus > 0 {
		if c, ok := machine.Lookup("Cpus"); ok {
			if n, defined := c.AsNumber(); defined && n < float64(j.RequestCpus) {
				return false, nil
			}
		}
	}
	if j.RequestMemoryMB > 0 {
		if m, ok := machine.Lookup("Memory"); ok {
			if n, defined := m.AsNumber(); defined && n < float64(j.RequestMemoryMB) {
				return false, nil
			}
		}
	}
	if j.Requirements == "" {
		return true, nil
	}
	return classad.EvalBool(j.Requirements, j.MatchAd(), machine)
}
