// Package burst implements the paper's VDC bursting simulator (§3.1):
// it replays the job times of a real DAGMan batch second by second and
// applies OSG-tailored policies that offload jobs to simulated VDC
// cloud resources — Policy 1 (low instant throughput), Policy 2
// (congested queue), Policy 3 (submission gaps). Offloaded jobs
// complete in fixed times (rupture 287 s, waveform 144 s, from AWS
// baseline measurements) and accrue cost at on-demand pricing.
package burst

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"sort"

	"fdw/internal/obs"
	"fdw/internal/stats"
	"fdw/internal/wtrace"
)

// Paper constants (§3.1.1, §4.3).
const (
	// DefaultRuptureVDCSecs is the simulated VDC completion time for a
	// rupture job, measured on the AWS a1-class baseline machine.
	DefaultRuptureVDCSecs = 287
	// DefaultWaveformVDCSecs is the same for a waveform job.
	DefaultWaveformVDCSecs = 144
	// DefaultCostPerMinute is Amazon EC2 on-demand pricing for an
	// a1.xlarge (4 CPUs, 8 GB), USD per minute.
	DefaultCostPerMinute = 0.0017
	// DefaultMaxBurstFraction caps offloading at 30% of the batch.
	DefaultMaxBurstFraction = 0.30
)

// Policy1 addresses low throughput: every ProbeSecs, if instant
// throughput is below ThresholdJPM, burst the last unsubmitted job.
type Policy1 struct {
	ProbeSecs    float64
	ThresholdJPM float64
}

// Policy2 addresses congested queues: jobs idle longer than
// MaxQueueSecs are removed from the OSG queue and bursted. The queue is
// inspected every ProbeSecs ("we regularly analyze submitted OSG
// jobs"); zero means the 60-second default.
type Policy2 struct {
	MaxQueueSecs float64
	ProbeSecs    float64
}

// Policy3 addresses submission gaps: if more than MaxGapSecs have
// passed since the most recent job submission, burst the last
// unsubmitted job (checked every ProbeSecs).
type Policy3 struct {
	MaxGapSecs float64
	ProbeSecs  float64
}

// ElasticPolicy implements the paper's §6 future-work direction: an
// elastic algorithm that scales VDC resources to the throughput
// deficit instead of bursting one job per probe. Each ProbeSecs it
// bursts up to MaxPerProbe jobs, proportionally to how far instant
// throughput sits below TargetJPM — large deficits provision VDC
// aggressively, small ones trickle.
type ElasticPolicy struct {
	TargetJPM   float64
	ProbeSecs   float64
	MaxPerProbe int
}

// Config selects policies and constants for one simulation. Nil
// policies are disabled; all-nil reproduces the control (pure OSG
// replay).
type Config struct {
	P1      *Policy1
	P2      *Policy2
	P3      *Policy3
	Elastic *ElasticPolicy

	RuptureVDCSecs   float64
	WaveformVDCSecs  float64
	CostPerMinute    float64
	MaxBurstFraction float64

	// Obs, if set, receives per-policy burst decisions, VDC occupancy,
	// and accumulated cost. The replay itself never reads it, so results
	// are identical with or without a registry.
	Obs *obs.Registry
}

// DefaultConfig returns the paper's constants with no policies enabled.
func DefaultConfig() Config {
	return Config{
		RuptureVDCSecs:   DefaultRuptureVDCSecs,
		WaveformVDCSecs:  DefaultWaveformVDCSecs,
		CostPerMinute:    DefaultCostPerMinute,
		MaxBurstFraction: DefaultMaxBurstFraction,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.RuptureVDCSecs <= 0 || c.WaveformVDCSecs <= 0 {
		return fmt.Errorf("burst: non-positive VDC completion times")
	}
	if c.CostPerMinute < 0 {
		return fmt.Errorf("burst: negative cost per minute")
	}
	if c.MaxBurstFraction < 0 || c.MaxBurstFraction > 1 {
		return fmt.Errorf("burst: MaxBurstFraction %v outside [0,1]", c.MaxBurstFraction)
	}
	if c.P1 != nil && (c.P1.ProbeSecs <= 0 || c.P1.ThresholdJPM <= 0) {
		return fmt.Errorf("burst: invalid Policy 1 %+v", *c.P1)
	}
	if c.P2 != nil && (c.P2.MaxQueueSecs <= 0 || c.P2.ProbeSecs < 0) {
		return fmt.Errorf("burst: invalid Policy 2 %+v", *c.P2)
	}
	if c.P3 != nil && (c.P3.MaxGapSecs <= 0 || c.P3.ProbeSecs <= 0) {
		return fmt.Errorf("burst: invalid Policy 3 %+v", *c.P3)
	}
	if c.Elastic != nil && (c.Elastic.TargetJPM <= 0 || c.Elastic.ProbeSecs <= 0 || c.Elastic.MaxPerProbe <= 0) {
		return fmt.Errorf("burst: invalid elastic policy %+v", *c.Elastic)
	}
	return nil
}

// Result is one simulation's report (§3.1: "statistics are computed and
// reported in detailed output").
type Result struct {
	Batch    string
	Control  bool // no policies were enabled
	TotalJob int

	RuntimeSecs float64

	// Instant-throughput series statistics (formula (6) and Fig. 5/6).
	AvgInstantJPM float64
	MaxInstantJPM float64
	MinInstantJPM float64
	SDInstantJPM  float64

	BurstedJobs int
	BurstedPct  float64
	VDCMinutes  float64 // simulated VDC compute minutes consumed
	CostUSD     float64 // formula (7)
	// VDCUsagePct is the share of completed jobs that ran on VDC rather
	// than OSG — the paper's "percentage of Cloud/VDC usage compared to
	// OSG" (§5.3.2: up to 85.6% with a 1-second probe).
	VDCUsagePct    float64
	VDCActivePct   float64 // % of runtime seconds with ≥1 VDC job active
	CompletedOSG   int
	CompletedVDC   int
	ThroughputJPM  float64 // total throughput, completions/runtime
	InstantSeries  []float64
	SeriesStepSecs float64
}

// jobState is one job's replay state. The job's trace record stays in
// the caller's slice at the same index.
type jobState struct {
	submitted bool
	done      bool
	bursted   bool
	vdcLeft   float64 // remaining VDC seconds once bursted
}

// sortByEnd orders byEnd, indices of finishable jobs, by their end
// times and returns it, in byEnd or in a buffer of the same length. It
// is an LSD radix sort, one byte per pass, over endBits; a pass whose
// byte every job shares is skipped. The order among equal end times is
// unspecified.
func sortByEnd(jobs []wtrace.JobRecord, byEnd []int32) []int32 {
	if len(byEnd) < 2 {
		return byEnd
	}
	tmp := make([]int32, len(byEnd))
	var count [256]int
	for shift := 0; shift < 64; shift += 8 {
		count = [256]int{}
		for _, k := range byEnd {
			count[byte(endBits(jobs[k].End)>>shift)]++
		}
		if count[byte(endBits(jobs[byEnd[0]].End)>>shift)] == len(byEnd) {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range byEnd {
			d := byte(endBits(jobs[k].End) >> shift)
			tmp[count[d]] = k
			count[d]++
		}
		byEnd, tmp = tmp, byEnd
	}
	return byEnd
}

// endBits is a finishable job's end time as a sort key: for the
// non-negative finite end times such jobs have, IEEE-754 bits order
// like the values once −0, whose sign bit would sort it last, reads
// as +0.
func endBits(end float64) uint64 {
	if end == 0 {
		return 0
	}
	return math.Float64bits(end)
}

// horizonSecs is how far past the batch's last termination the replay
// may run: a safety bound, since bursting only shortens runs.
const horizonSecs = 24 * 3600

// exactSecs bounds the replay clock: float64 holds every integer only
// up to 2^53, so beyond it the one-second step t++ rounds back to t.
const exactSecs = 1 << 53

// maxSeriesPrealloc caps the instant series' up-front capacity (8 MiB),
// so a hostile batch span cannot allocate before the replay starts.
const maxSeriesPrealloc = 1 << 20

// inexact names the first of a trace record's submit, start and end
// times at which the replay clock's one-second step is not exact, and
// returns it with its value; the name is "" when all three are safe.
// NaN and ±Inf are never safe.
func inexact(submit, start, end float64) (string, float64) {
	for i, v := range [3]float64{submit, start, end} {
		if !(v >= -exactSecs && v+horizonSecs < exactSecs) {
			return [3]string{"submit", "start", "end"}[i], v
		}
	}
	return "", 0
}

// probeDue reports math.Mod(tick, p) == 0 — whether a probe every p
// seconds fires at tick — for every float64 pair. Integers below 2^53
// are exact in int64, and the float remainder is exact too, so when
// both inputs are such integers the int64 remainder is zero exactly
// when the float one is. Only non-integral inputs (a fractional probe,
// or a tick made inexact by a fractional batch submission) reach
// math.Mod.
func probeDue(tick, p float64) bool {
	if tick > -exactSecs && tick < exactSecs && p > -exactSecs && p < exactSecs {
		if ti, pi := int64(tick), int64(p); float64(ti) == tick && float64(pi) == p && pi != 0 {
			return ti%pi == 0
		}
	}
	return math.Mod(tick, p) == 0
}

// Simulate replays the batch under cfg. Jobs of class gf/matrix are
// replayed but never bursted (the B-phase barrier cannot move to VDC —
// its product must land back in the Stash cache either way).
//
// A simulated second costs its events plus one step per active VDC
// job: no allocation per job or per second, no math.Mod on integral
// probe schedules, and a Policy 2 scan that stops at the first job too
// young to burst (DESIGN.md §7, "Bursting replay loop").
func Simulate(batch wtrace.BatchRecord, jobs []wtrace.JobRecord, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := batch.Validate(); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("burst: no jobs in trace")
	}
	if len(jobs) > math.MaxInt32 {
		return nil, fmt.Errorf("burst: %d jobs in trace, more than the replay's int32 job index holds", len(jobs))
	}
	if field, v := inexact(batch.Submit, batch.Start, batch.End); field != "" {
		return nil, fmt.Errorf("burst: batch %s %s time %v outside the replay clock's exact range [-2^53, 2^53-%d)", batch.Name, field, v, horizonSecs)
	}
	finishable := 0
	for _, j := range jobs {
		if field, v := inexact(j.Submit, j.Start, j.End); field != "" {
			return nil, fmt.Errorf("burst: job %s %s time %v outside the replay clock's exact range [-2^53, 2^53-%d)", j.ID, field, v, horizonSecs)
		}
		if j.Submit < batch.Submit {
			return nil, fmt.Errorf("burst: job %s submitted before batch", j.ID)
		}
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

	// Metric handles are resolved once per replay, not per second. A
	// policy's decision counter waits for its first decision: resolving
	// it earlier would add a zero-valued series to the snapshot.
	var decisions [4]*obs.Counter // p1, p2, p3, elastic
	burstDecision := func(i int, policy string) {
		if cfg.Obs == nil {
			return
		}
		if decisions[i] == nil {
			decisions[i] = cfg.Obs.Counter("fdw_burst_decisions_total", "batch", batch.Name, "policy", policy)
		}
		decisions[i].Inc()
	}
	var vdcGauge *obs.Gauge
	if cfg.Obs != nil {
		vdcGauge = cfg.Obs.Gauge("fdw_burst_vdc_active_jobs", "batch", batch.Name)
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

	// Job k's record is jobs[k] and its replay state slab[k]. The views
	// below hold job indices, so no buffer of the replay holds a pointer.
	slab := make([]jobState, len(jobs))

	// Event-ordered views for the per-second loop: jobs by submission
	// and by OSG termination time, plus live queued/VDC sets, so each
	// second costs O(changes) instead of O(jobs). The submission sort
	// starts from trace order, which fixes the order among equal times
	// that burstLastUnsubmitted depends on. A second's terminations
	// only add to counts, so their order is free and byEnd is
	// radix-sorted.
	bySubmit := make([]int, len(jobs))
	byEnd := make([]int32, 0, finishable)
	for k, j := range jobs {
		bySubmit[k] = k
		if j.Finished() {
			byEnd = append(byEnd, int32(k))
		}
	}
	sort.Slice(bySubmit, func(a, b int) bool { return jobs[bySubmit[a]].Submit < jobs[bySubmit[b]].Submit })
	byEnd = sortByEnd(jobs, byEnd)
	remaining := len(byEnd) // OSG-finishable jobs not yet done or bursted
	// Only Policy 2 reads the queue (submitted, waiting to start on OSG).
	var queued []int
	if cfg.P2 != nil {
		queued = make([]int, 0, len(jobs))
	}
	// Every VDC job was bursted, so at most maxBurst are ever active.
	vdcActiveJobs := make([]int, 0, maxBurst)

	// burstLastUnsubmitted walks a tail pointer down bySubmit to find
	// the job with the latest pending submission time ("the last
	// unsubmitted OSG job for the phase") in amortized O(1) per call.
	// It returns the job's index, or -1 if none may burst.
	tail := len(bySubmit) - 1 // highest candidate index
	submittedIdx := 0         // everything below this is submitted
	burstLastUnsubmitted := func() int {
		if res.BurstedJobs >= maxBurst {
			return -1
		}
		for tail >= submittedIdx {
			k := bySubmit[tail]
			tail--
			st := &slab[k]
			if st.bursted || st.submitted || st.done || vdcSecsFor(jobs[k].Class) == 0 {
				continue
			}
			st.bursted = true
			st.vdcLeft = vdcSecsFor(jobs[k].Class)
			res.BurstedJobs++
			return k
		}
		return -1
	}

	// burstQueued offloads a specific queued job (Policy 2).
	burstQueued := func(k int) bool {
		if res.BurstedJobs >= maxBurst {
			return false
		}
		if vdcSecsFor(jobs[k].Class) == 0 {
			return false
		}
		slab[k].bursted = true
		slab[k].vdcLeft = vdcSecsFor(jobs[k].Class)
		res.BurstedJobs++
		return true
	}

	completed := 0
	lastSubmitSeen := batch.Submit
	// One sample per second to the batch's end, unless VDC work runs
	// past it; append grows the series beyond this if it must.
	seriesCap := batch.End - batch.Submit + 2
	if !(seriesCap <= maxSeriesPrealloc) {
		seriesCap = maxSeriesPrealloc
	}
	instant := make([]float64, 0, int(seriesCap))
	horizon := batch.End + horizonSecs
	endAt := batch.End

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
		for si < len(bySubmit) && jobs[bySubmit[si]].Submit <= now {
			k := bySubmit[si]
			si++
			submittedIdx = si
			if slab[k].bursted {
				continue
			}
			slab[k].submitted = true
			if cfg.P2 != nil {
				queued = append(queued, k)
			}
			if jobs[k].Submit > lastSubmitSeen {
				lastSubmitSeen = jobs[k].Submit
			}
		}

		// 2. OSG completions per the trace.
		for ei < len(byEnd) && jobs[byEnd[ei]].End <= now {
			st := &slab[byEnd[ei]]
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
			for _, k := range vdcActiveJobs {
				st := &slab[k]
				st.vdcLeft--
				res.VDCMinutes += 1.0 / 60
				if st.vdcLeft <= 0 {
					st.done = true
					completed++
					res.CompletedVDC++
				} else {
					live = append(live, k)
				}
			}
			vdcActiveJobs = live
		}

		// 4. Policies.
		tick := now - batch.Submit
		if cfg.P1 != nil && tick > 0 && probeDue(tick, cfg.P1.ProbeSecs) {
			if stats.InstantThroughput(completed, elapsedMin) < cfg.P1.ThresholdJPM {
				if k := burstLastUnsubmitted(); k >= 0 {
					burstDecision(0, "p1")
					vdcActiveJobs = append(vdcActiveJobs, k)
					if jobs[k].Finished() {
						remaining--
					}
				}
			}
		}
		if cfg.P2 != nil && tick > 0 && probeDue(tick, p2Probe) {
			// queued is in submission order, so now-Submit never grows
			// along it: past the first job still young enough to stay,
			// no job can be bursted, and a departed job left in the
			// queue changes no decision. The scan stops there.
			live := queued[:0]
			i := 0
			for ; i < len(queued); i++ {
				k := queued[i]
				st, rec := &slab[k], &jobs[k]
				if st.done || st.bursted || (rec.Started() && rec.Start <= now) {
					continue // left the queue
				}
				if !(now-rec.Submit > cfg.P2.MaxQueueSecs) {
					break
				}
				if burstQueued(k) {
					burstDecision(1, "p2")
					vdcActiveJobs = append(vdcActiveJobs, k)
					if jobs[k].Finished() {
						remaining--
					}
					continue
				}
				live = append(live, k)
			}
			queued = append(live, queued[i:]...)
		}
		if cfg.P3 != nil && tick > 0 && probeDue(tick, cfg.P3.ProbeSecs) {
			if now-lastSubmitSeen > cfg.P3.MaxGapSecs {
				if k := burstLastUnsubmitted(); k >= 0 {
					burstDecision(2, "p3")
					vdcActiveJobs = append(vdcActiveJobs, k)
					if jobs[k].Finished() {
						remaining--
					}
				}
			}
		}
		if e := cfg.Elastic; e != nil && tick > 0 && probeDue(tick, e.ProbeSecs) {
			it := stats.InstantThroughput(completed, elapsedMin)
			if deficit := e.TargetJPM - it; deficit > 0 {
				n := int(math.Ceil(deficit / e.TargetJPM * float64(e.MaxPerProbe)))
				for i := 0; i < n; i++ {
					k := burstLastUnsubmitted()
					if k < 0 {
						break
					}
					burstDecision(3, "elastic")
					vdcActiveJobs = append(vdcActiveJobs, k)
					if jobs[k].Finished() {
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
		if vdcGauge != nil {
			vdcGauge.Set(float64(len(vdcActiveJobs)))
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

// WriteSeriesCSV writes the per-second instant-throughput series —
// the simulator's .csv output in the paper.
func WriteSeriesCSV(w io.Writer, r *Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"second", "instant_jpm"}); err != nil {
		return err
	}
	for i, v := range r.InstantSeries {
		if err := cw.Write([]string{strconv.Itoa(i), strconv.FormatFloat(v, 'f', 4, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Report renders the detailed output block.
func (r *Result) Report(w io.Writer) error {
	kind := "bursting"
	if r.Control {
		kind = "control"
	}
	_, err := fmt.Fprintf(w, `batch %s (%s)
  runtime            %.2f h
  avg instant tput   %.2f JPM (sd %.2f, min %.2f, max %.2f)
  total throughput   %.2f JPM
  jobs               %d total, %d OSG, %d VDC (%.1f%% bursted)
  VDC usage          %.1f%% of completions, active %.1f%% of runtime, %.1f compute minutes
  simulated cost     $%.2f
`,
		r.Batch, kind, r.RuntimeSecs/3600,
		r.AvgInstantJPM, r.SDInstantJPM, r.MinInstantJPM, r.MaxInstantJPM,
		r.ThroughputJPM,
		r.TotalJob, r.CompletedOSG, r.CompletedVDC, r.BurstedPct,
		r.VDCUsagePct, r.VDCActivePct, r.VDCMinutes,
		r.CostUSD)
	return err
}
