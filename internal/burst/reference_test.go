package burst

import (
	"fmt"
	"math"
	"sort"

	"fdw/internal/stats"
	"fdw/internal/wtrace"
)

// This file keeps the replay loop as it was before the per-second fast
// paths of DESIGN.md §7 ("Bursting replay"): math.Mod probe
// tests, one heap object per job, append-grown series, and a Policy 2
// scan over the whole queue. TestSimulateMatchesReference holds
// Simulate to it bit for bit. Only its name and its job-state type's
// name (refJobState) differ from the original.

// refJobState is the job state the reference loop keeps per job.
type refJobState struct {
	rec       wtrace.JobRecord
	submitted bool
	done      bool
	bursted   bool
	vdcLeft   float64 // remaining VDC seconds once bursted
	vdcTotal  float64
}

// referenceSimulate replays the batch under cfg. Jobs of class gf/matrix are
// replayed but never bursted (the B-phase barrier cannot move to VDC —
// its product must land back in the Stash cache either way).
func referenceSimulate(batch wtrace.BatchRecord, jobs []wtrace.JobRecord, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := batch.Validate(); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("burst: no jobs in trace")
	}
	states := make([]*refJobState, len(jobs))
	finishable := 0
	for i, j := range jobs {
		if j.Submit < batch.Submit {
			return nil, fmt.Errorf("burst: job %s submitted before batch", j.ID)
		}
		states[i] = &refJobState{rec: j}
		if j.Finished() {
			finishable++
		}
	}
	if finishable == 0 {
		return nil, fmt.Errorf("burst: trace has no finishable jobs")
	}

	res := &Result{
		Batch:          batch.Name,
		Control:        cfg.P1 == nil && cfg.P2 == nil && cfg.P3 == nil && cfg.Elastic == nil,
		TotalJob:       len(jobs),
		SeriesStepSecs: 1,
		MinInstantJPM:  math.Inf(1),
	}
	maxBurst := int(cfg.MaxBurstFraction * float64(len(jobs)))

	burstDecision := func(policy string) {
		if cfg.Obs != nil {
			cfg.Obs.Counter("fdw_burst_decisions_total", "batch", batch.Name, "policy", policy).Inc()
		}
	}

	vdcSecsFor := func(class wtrace.JobClass) float64 {
		switch class {
		case wtrace.ClassRupture:
			return cfg.RuptureVDCSecs
		case wtrace.ClassWaveform:
			return cfg.WaveformVDCSecs
		default:
			return 0 // not burstable
		}
	}

	// bySubmitAsc is maintained below; burstLastUnsubmitted walks a tail
	// pointer down it to find the job with the latest pending submission
	// time ("the last unsubmitted OSG job for the phase") in amortized
	// O(1) per call.
	var bySubmitAsc []*refJobState
	tail := -1        // highest candidate index; set after sorting
	submittedIdx := 0 // everything below this is submitted
	burstLastUnsubmitted := func() *refJobState {
		if res.BurstedJobs >= maxBurst {
			return nil
		}
		for tail >= submittedIdx {
			st := bySubmitAsc[tail]
			if st.bursted || st.submitted || st.done || vdcSecsFor(st.rec.Class) == 0 {
				tail--
				continue
			}
			st.bursted = true
			st.vdcTotal = vdcSecsFor(st.rec.Class)
			st.vdcLeft = st.vdcTotal
			res.BurstedJobs++
			tail--
			return st
		}
		return nil
	}

	// burstQueued offloads a specific queued job (Policy 2).
	burstQueued := func(st *refJobState) bool {
		if res.BurstedJobs >= maxBurst {
			return false
		}
		if vdcSecsFor(st.rec.Class) == 0 {
			return false
		}
		st.bursted = true
		st.vdcTotal = vdcSecsFor(st.rec.Class)
		st.vdcLeft = st.vdcTotal
		res.BurstedJobs++
		return true
	}

	completed := 0
	lastSubmitSeen := batch.Submit
	var instant []float64
	horizon := batch.End + 24*3600 // safety bound; bursting only shortens runs
	endAt := batch.End

	// Event-ordered views for the per-second loop: jobs by submission
	// and by OSG termination time, plus live queued/VDC sets, so each
	// second costs O(changes) instead of O(jobs).
	bySubmit := make([]*refJobState, len(states))
	copy(bySubmit, states)
	sort.Slice(bySubmit, func(i, j int) bool { return bySubmit[i].rec.Submit < bySubmit[j].rec.Submit })
	bySubmitAsc = bySubmit
	tail = len(bySubmit) - 1
	var byEnd []*refJobState
	for _, st := range states {
		if st.rec.Finished() {
			byEnd = append(byEnd, st)
		}
	}
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].rec.End < byEnd[j].rec.End })
	remaining := len(byEnd)   // OSG-finishable jobs not yet done or bursted
	var queued []*refJobState // submitted, waiting to start on OSG
	var vdcActiveJobs []*refJobState

	p2Probe := 60.0
	if cfg.P2 != nil && cfg.P2.ProbeSecs > 0 {
		p2Probe = cfg.P2.ProbeSecs
	}

	si, ei := 0, 0
	var t float64
	for t = batch.Submit; t <= horizon; t++ {
		now := t
		elapsedMin := (now - batch.Submit) / 60

		// 1. Mark submissions; track the most recent one (Policy 3).
		for si < len(bySubmit) && bySubmit[si].rec.Submit <= now {
			st := bySubmit[si]
			si++
			submittedIdx = si
			if st.bursted {
				continue
			}
			st.submitted = true
			queued = append(queued, st)
			if st.rec.Submit > lastSubmitSeen {
				lastSubmitSeen = st.rec.Submit
			}
		}

		// 2. OSG completions per the trace.
		for ei < len(byEnd) && byEnd[ei].rec.End <= now {
			st := byEnd[ei]
			ei++
			if st.bursted || st.done {
				continue
			}
			st.done = true
			completed++
			remaining--
			res.CompletedOSG++
		}

		// 3. Advance VDC jobs by one second.
		if len(vdcActiveJobs) > 0 {
			res.VDCActivePct++ // counts seconds; normalized later
			live := vdcActiveJobs[:0]
			for _, st := range vdcActiveJobs {
				st.vdcLeft--
				res.VDCMinutes += 1.0 / 60
				if st.vdcLeft <= 0 {
					st.done = true
					completed++
					res.CompletedVDC++
				} else {
					live = append(live, st)
				}
			}
			vdcActiveJobs = live
		}

		// 4. Policies.
		tick := now - batch.Submit
		if cfg.P1 != nil && tick > 0 && math.Mod(tick, cfg.P1.ProbeSecs) == 0 {
			if stats.InstantThroughput(completed, elapsedMin) < cfg.P1.ThresholdJPM {
				if st := burstLastUnsubmitted(); st != nil {
					burstDecision("p1")
					vdcActiveJobs = append(vdcActiveJobs, st)
					if st.rec.Finished() {
						remaining--
					}
				}
			}
		}
		if cfg.P2 != nil && tick > 0 && math.Mod(tick, p2Probe) == 0 {
			live := queued[:0]
			for _, st := range queued {
				if st.done || st.bursted || (st.rec.Started() && st.rec.Start <= now) {
					continue // left the queue
				}
				if now-st.rec.Submit > cfg.P2.MaxQueueSecs && burstQueued(st) {
					burstDecision("p2")
					vdcActiveJobs = append(vdcActiveJobs, st)
					if st.rec.Finished() {
						remaining--
					}
					continue
				}
				live = append(live, st)
			}
			queued = live
		}
		if cfg.P3 != nil && tick > 0 && math.Mod(tick, cfg.P3.ProbeSecs) == 0 {
			if now-lastSubmitSeen > cfg.P3.MaxGapSecs {
				if st := burstLastUnsubmitted(); st != nil {
					burstDecision("p3")
					vdcActiveJobs = append(vdcActiveJobs, st)
					if st.rec.Finished() {
						remaining--
					}
				}
			}
		}
		if e := cfg.Elastic; e != nil && tick > 0 && math.Mod(tick, e.ProbeSecs) == 0 {
			it := stats.InstantThroughput(completed, elapsedMin)
			if deficit := e.TargetJPM - it; deficit > 0 {
				k := int(math.Ceil(deficit / e.TargetJPM * float64(e.MaxPerProbe)))
				for i := 0; i < k; i++ {
					st := burstLastUnsubmitted()
					if st == nil {
						break
					}
					burstDecision("elastic")
					vdcActiveJobs = append(vdcActiveJobs, st)
					if st.rec.Finished() {
						remaining--
					}
				}
			}
		}

		// 5. Instant throughput sample (formula (5)).
		it := stats.InstantThroughput(completed, elapsedMin)
		instant = append(instant, it)
		if it > res.MaxInstantJPM {
			res.MaxInstantJPM = it
		}
		if it < res.MinInstantJPM {
			res.MinInstantJPM = it
		}

		// 6. Termination: every job that can finish has finished.
		if cfg.Obs != nil {
			cfg.Obs.Gauge("fdw_burst_vdc_active_jobs", "batch", batch.Name).Set(float64(len(vdcActiveJobs)))
		}
		if remaining == 0 && len(vdcActiveJobs) == 0 && si >= len(bySubmit) {
			endAt = now
			break
		}
	}

	res.RuntimeSecs = endAt - batch.Submit
	res.InstantSeries = instant
	res.AvgInstantJPM = stats.AvgInstantThroughput(instant)
	res.SDInstantJPM = stats.SD(instant)
	if math.IsInf(res.MinInstantJPM, 1) {
		res.MinInstantJPM = 0
	}
	if res.RuntimeSecs > 0 {
		res.ThroughputJPM = float64(completed) / (res.RuntimeSecs / 60)
		res.VDCActivePct = res.VDCActivePct / res.RuntimeSecs * 100
	}
	res.BurstedPct = float64(res.BurstedJobs) / float64(len(jobs)) * 100
	if done := res.CompletedOSG + res.CompletedVDC; done > 0 {
		res.VDCUsagePct = float64(res.CompletedVDC) / float64(done) * 100
	}
	res.CostUSD = stats.BurstCost(res.VDCMinutes, cfg.CostPerMinute)
	if cfg.Obs != nil {
		cfg.Obs.Counter("fdw_burst_jobs_total", "batch", batch.Name, "backend", "osg").Add(uint64(res.CompletedOSG))
		cfg.Obs.Counter("fdw_burst_jobs_total", "batch", batch.Name, "backend", "vdc").Add(uint64(res.CompletedVDC))
		cfg.Obs.Gauge("fdw_burst_vdc_minutes", "batch", batch.Name).Set(res.VDCMinutes)
		cfg.Obs.Gauge("fdw_burst_cost_usd", "batch", batch.Name).Set(res.CostUSD)
	}
	return res, nil
}
