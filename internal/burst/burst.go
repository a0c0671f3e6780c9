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

// Validate reports configuration errors, naming the field at fault.
func (c Config) Validate() error {
	if err := finite(
		namedValue{"RuptureVDCSecs", c.RuptureVDCSecs},
		namedValue{"WaveformVDCSecs", c.WaveformVDCSecs},
		namedValue{"CostPerMinute", c.CostPerMinute},
		namedValue{"MaxBurstFraction", c.MaxBurstFraction},
	); err != nil {
		return err
	}
	if c.RuptureVDCSecs <= 0 || c.WaveformVDCSecs <= 0 {
		return fmt.Errorf("burst: non-positive VDC completion times")
	}
	// A VDC job's step count is ⌈secs⌉ only while every secs−1 of the
	// reference's decrements is exact (DESIGN.md §7).
	if c.RuptureVDCSecs >= exactSecs || c.WaveformVDCSecs >= exactSecs {
		return fmt.Errorf("burst: VDC completion times %v/%v s not below 2^53 s", c.RuptureVDCSecs, c.WaveformVDCSecs)
	}
	if c.CostPerMinute < 0 {
		return fmt.Errorf("burst: negative cost per minute")
	}
	if c.MaxBurstFraction < 0 || c.MaxBurstFraction > 1 {
		return fmt.Errorf("burst: MaxBurstFraction %v outside [0,1]", c.MaxBurstFraction)
	}
	if c.P1 != nil {
		if err := finite(namedValue{"P1.ProbeSecs", c.P1.ProbeSecs}, namedValue{"P1.ThresholdJPM", c.P1.ThresholdJPM}); err != nil {
			return err
		}
		if c.P1.ProbeSecs <= 0 || c.P1.ThresholdJPM <= 0 {
			return fmt.Errorf("burst: invalid Policy 1 %+v", *c.P1)
		}
	}
	if c.P2 != nil {
		if err := finite(namedValue{"P2.MaxQueueSecs", c.P2.MaxQueueSecs}, namedValue{"P2.ProbeSecs", c.P2.ProbeSecs}); err != nil {
			return err
		}
		if c.P2.MaxQueueSecs <= 0 || c.P2.ProbeSecs < 0 {
			return fmt.Errorf("burst: invalid Policy 2 %+v", *c.P2)
		}
	}
	if c.P3 != nil {
		if err := finite(namedValue{"P3.MaxGapSecs", c.P3.MaxGapSecs}, namedValue{"P3.ProbeSecs", c.P3.ProbeSecs}); err != nil {
			return err
		}
		if c.P3.MaxGapSecs <= 0 || c.P3.ProbeSecs <= 0 {
			return fmt.Errorf("burst: invalid Policy 3 %+v", *c.P3)
		}
	}
	if e := c.Elastic; e != nil {
		if err := finite(namedValue{"Elastic.TargetJPM", e.TargetJPM}, namedValue{"Elastic.ProbeSecs", e.ProbeSecs}); err != nil {
			return err
		}
		if e.TargetJPM <= 0 || e.ProbeSecs <= 0 || e.MaxPerProbe <= 0 {
			return fmt.Errorf("burst: invalid elastic policy %+v", *e)
		}
	}
	return nil
}

// namedValue is a Config field and its value, for finite.
type namedValue struct {
	name string
	v    float64
}

// finite names the first of fields that is NaN or ±Inf. NaN passes
// every ordering check, and an infinite VDC time or cap would never
// end a job or size a buffer.
func finite(fields ...namedValue) error {
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("burst: %s is %v, not a finite number", f.name, f.v)
		}
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

// probe is one policy's probe schedule: it fires at the ticks where
// math.Mod(tick, every) == 0 and tick > 0. When every tick of the
// replay is an exact integer and every a positive integer below 2^53,
// those are the steps every, 2·every, …, so a countdown (next, the
// next step to fire) replaces probeDue's division; otherwise next is
// 0 and probeDue decides.
type probe struct {
	every float64
	next  int64
}

func newProbe(every float64, integralTicks bool) probe {
	if integralTicks && every >= 1 && every < exactSecs && every == math.Trunc(every) {
		return probe{every: every, next: int64(every)}
	}
	return probe{every: every}
}

// due reports whether the probe fires at step, whose tick is tick. A
// countdown must be asked at every step.
func (p *probe) due(step int64, tick float64) bool {
	if p.next == 0 {
		return tick > 0 && probeDue(tick, p.every)
	}
	if step != p.next {
		return false
	}
	p.next += int64(p.every)
	return true
}

// vdcSteps is how many one-second decrements take a job bursted for
// secs VDC seconds to secs−k <= 0. For finite 0 < secs < 2^53 every
// decrement that leaves a positive value is exact, and the last one
// leaves a value in (−1, 0], so the count is ⌈secs⌉; Validate rejects
// every other secs.
func vdcSteps(secs float64) int64 { return int64(math.Ceil(secs)) }

// Job kind bits of a prepared trace, one byte per job.
const (
	kindRupture  uint8 = 1 << iota // bursts for RuptureVDCSecs
	kindWaveform                   // bursts for WaveformVDCSecs
	kindFinishes                   // the trace records a termination
)

// Job replay state bits, one byte per job of a replay.
const (
	stSubmitted uint8 = 1 << iota
	stDone
	stBursted
)

// Trace is a batch trace prepared for replay: validated, with its jobs
// renumbered in submission order and its terminations sorted, once.
// Simulate only reads it, so any number of replays, on any number of
// goroutines, can share one Trace.
type Trace struct {
	batch wtrace.BatchRecord
	// Job p is the p-th job in submission order (the order sort.Slice
	// gives from trace order, which burstLastUnsubmitted and Policy 2
	// depend on among equal times).
	submit []float64 // job p's submission time, ascending
	start  []float64 // job p's OSG start time, +Inf if it never started
	kind   []uint8   // job p's kind bits
	byEnd  []int32   // finishable jobs by end time
	end    []float64 // end[i] is job byEnd[i]'s end time, ascending
}

// Prepare validates a batch trace and builds the event orders every
// replay of it scans.
func Prepare(batch wtrace.BatchRecord, jobs []wtrace.JobRecord) (*Trace, error) {
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

	// The submission sort starts from trace order, which fixes the
	// order among equal times. A second's terminations only add to
	// counts, so their order is free and byEnd is radix-sorted.
	bySubmit := make([]int32, len(jobs))
	byEnd := make([]int32, 0, finishable)
	for k, j := range jobs {
		bySubmit[k] = int32(k)
		if j.Finished() {
			byEnd = append(byEnd, int32(k))
		}
	}
	sort.Slice(bySubmit, func(a, b int) bool { return jobs[bySubmit[a]].Submit < jobs[bySubmit[b]].Submit })
	byEnd = sortByEnd(jobs, byEnd)

	t := &Trace{
		batch:  batch,
		submit: make([]float64, len(jobs)),
		start:  make([]float64, len(jobs)),
		kind:   make([]uint8, len(jobs)),
		byEnd:  byEnd,
		end:    make([]float64, len(byEnd)),
	}
	rank := make([]int32, len(jobs)) // rank[k] is job k's p
	for p, k := range bySubmit {
		j := &jobs[k]
		rank[k] = int32(p)
		t.submit[p] = j.Submit
		t.start[p] = math.Inf(1)
		if j.Started() {
			t.start[p] = j.Start
		}
		switch j.Class {
		case wtrace.ClassRupture:
			t.kind[p] = kindRupture
		case wtrace.ClassWaveform:
			t.kind[p] = kindWaveform
		}
		if j.Finished() {
			t.kind[p] |= kindFinishes
		}
	}
	for i, k := range byEnd {
		t.end[i] = jobs[k].End
		byEnd[i] = rank[k]
	}
	return t, nil
}

// Simulate replays the batch under cfg: Prepare, then one replay. A
// configuration error is reported before a trace error.
func Simulate(batch wtrace.BatchRecord, jobs []wtrace.JobRecord, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t, err := Prepare(batch, jobs)
	if err != nil {
		return nil, err
	}
	return t.Simulate(cfg)
}

// Simulate replays the prepared batch under cfg. Jobs of class
// gf/matrix are replayed but never bursted (the B-phase barrier cannot
// move to VDC — its product must land back in the Stash cache either
// way).
//
// A simulated second costs its events plus one add per active VDC
// job: submissions and terminations are scanned from dense arrays,
// VDC completions pop from one FIFO per class, integral probe
// schedules count down, and a Policy 2 scan stops at the first job too
// young to burst (DESIGN.md §7, "Bursting replay").
func (t *Trace) Simulate(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	batch, n := t.batch, len(t.submit)
	res := &Result{
		Batch:          batch.Name,
		Control:        cfg.P1 == nil && cfg.P2 == nil && cfg.P3 == nil && cfg.Elastic == nil,
		TotalJob:       n,
		SeriesStepSecs: 1,
		MinInstantJPM:  math.Inf(1),
	}
	maxBurst := int(cfg.MaxBurstFraction * float64(n))

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
	// Job p's replay state. The other buffers hold ranks, so no buffer
	// of the replay holds a pointer.
	state := make([]uint8, n)
	remaining := len(t.byEnd) // OSG-finishable jobs not yet done or bursted
	// Only Policy 2 reads the queue (submitted, waiting to start on OSG).
	var queued []int32
	if cfg.P2 != nil {
		queued = make([]int32, 0, n)
	}

	// Every bursted job of a class runs the class's VDC seconds, so it
	// finishes a fixed number of steps after the step it was bursted
	// at, and within a class jobs finish in the order they started. A
	// FIFO per class of due steps replaces the walk over every active
	// job. At most maxBurst jobs are ever bursted, so neither FIFO
	// outgrows maxBurst entries.
	vdcDue := make([]int64, 2*maxBurst)
	vdc := [2][]int64{vdcDue[:0:maxBurst], vdcDue[maxBurst:maxBurst]} // rupture, waveform
	var vdcHead [2]int
	vdcLen := [2]int64{vdcSteps(cfg.RuptureVDCSecs), vdcSteps(cfg.WaveformVDCSecs)}
	var step int64 // replay steps since batch.Submit
	vdcActive := func() int { return len(vdc[0]) - vdcHead[0] + len(vdc[1]) - vdcHead[1] }
	// launch sends bursted job p to VDC.
	launch := func(policy int, name string, p int) {
		burstDecision(policy, name)
		c := 0
		if t.kind[p]&kindWaveform != 0 {
			c = 1
		}
		vdc[c] = append(vdc[c], step+vdcLen[c])
		if t.kind[p]&kindFinishes != 0 {
			remaining--
		}
	}

	// burstLastUnsubmitted walks a tail pointer down the submission
	// order to find the job with the latest pending submission time
	// ("the last unsubmitted OSG job for the phase") in amortized O(1)
	// per call. It returns the job's rank, or -1 if none may burst.
	tail := n - 1     // highest candidate rank
	submittedIdx := 0 // every job below this rank is submitted
	burstLastUnsubmitted := func() int {
		if res.BurstedJobs >= maxBurst {
			return -1
		}
		for tail >= submittedIdx {
			p := tail
			tail--
			if state[p] != 0 || t.kind[p]&(kindRupture|kindWaveform) == 0 {
				continue
			}
			state[p] = stBursted
			res.BurstedJobs++
			return p
		}
		return -1
	}

	// burstQueued offloads a specific queued job (Policy 2).
	burstQueued := func(p int) bool {
		if res.BurstedJobs >= maxBurst || t.kind[p]&(kindRupture|kindWaveform) == 0 {
			return false
		}
		state[p] |= stBursted
		res.BurstedJobs++
		return true
	}

	completed := 0
	lastSubmitSeen := batch.Submit
	var vdcMinutes float64
	// One sample per second to the batch's end, unless VDC work runs
	// past it; append grows the series beyond this if it must.
	seriesCap := batch.End - batch.Submit + 2
	if !(seriesCap <= maxSeriesPrealloc) {
		seriesCap = maxSeriesPrealloc
	}
	instant := make([]float64, 0, int(seriesCap))
	horizon := batch.End + horizonSecs
	endAt := batch.End

	// tick is step exactly when batch.Submit is an integer and no tick
	// reaches 2^53; then integral probe periods count down.
	integral := batch.Submit == math.Trunc(batch.Submit) && horizon-batch.Submit < exactSecs
	var p1, p2, p3, pe probe
	if cfg.P1 != nil {
		p1 = newProbe(cfg.P1.ProbeSecs, integral)
	}
	if cfg.P2 != nil {
		every := 60.0
		if cfg.P2.ProbeSecs > 0 {
			every = cfg.P2.ProbeSecs
		}
		p2 = newProbe(every, integral)
	}
	if cfg.P3 != nil {
		p3 = newProbe(cfg.P3.ProbeSecs, integral)
	}
	if cfg.Elastic != nil {
		pe = newProbe(cfg.Elastic.ProbeSecs, integral)
	}

	si, ei := 0, 0
	for now := batch.Submit; now <= horizon; now, step = now+1, step+1 {
		elapsedMin := (now - batch.Submit) / 60

		// 1. Mark submissions; track the most recent one (Policy 3).
		for si < n && t.submit[si] <= now {
			p := si
			si++
			if state[p]&stBursted != 0 {
				continue
			}
			state[p] |= stSubmitted
			if cfg.P2 != nil {
				queued = append(queued, int32(p))
			}
			if t.submit[p] > lastSubmitSeen {
				lastSubmitSeen = t.submit[p]
			}
		}
		submittedIdx = si

		// 2. OSG completions per the trace.
		for ei < len(t.end) && t.end[ei] <= now {
			p := t.byEnd[ei]
			ei++
			if state[p]&(stBursted|stDone) != 0 {
				continue
			}
			state[p] |= stDone
			completed++
			remaining--
			res.CompletedOSG++
		}

		// 3. Advance VDC jobs by one second: each active job adds one
		// VDC second, in the reference's float sequence, and the jobs
		// due at this step finish.
		if active := vdcActive(); active > 0 {
			res.VDCActivePct++ // counts seconds; normalized later
			for i := 0; i < active; i++ {
				vdcMinutes += 1.0 / 60
			}
			for c := range vdc {
				for vdcHead[c] < len(vdc[c]) && vdc[c][vdcHead[c]] <= step {
					vdcHead[c]++
					completed++
					res.CompletedVDC++
				}
			}
		}

		// 4. Policies.
		tick := now - batch.Submit
		if cfg.P1 != nil && p1.due(step, tick) {
			if stats.InstantThroughput(completed, elapsedMin) < cfg.P1.ThresholdJPM {
				if p := burstLastUnsubmitted(); p >= 0 {
					launch(0, "p1", p)
				}
			}
		}
		if cfg.P2 != nil && p2.due(step, tick) {
			// queued is in submission order, so now-submit never grows
			// along it: past the first job still young enough to stay,
			// no job can be bursted, and a departed job left in the
			// queue changes no decision. The scan stops there.
			live := queued[:0]
			i := 0
			for ; i < len(queued); i++ {
				p := int(queued[i])
				if state[p]&(stDone|stBursted) != 0 || t.start[p] <= now {
					continue // left the queue
				}
				if !(now-t.submit[p] > cfg.P2.MaxQueueSecs) {
					break
				}
				if burstQueued(p) {
					launch(1, "p2", p)
					continue
				}
				live = append(live, int32(p))
			}
			queued = append(live, queued[i:]...)
		}
		if cfg.P3 != nil && p3.due(step, tick) {
			if now-lastSubmitSeen > cfg.P3.MaxGapSecs {
				if p := burstLastUnsubmitted(); p >= 0 {
					launch(2, "p3", p)
				}
			}
		}
		if e := cfg.Elastic; e != nil && pe.due(step, tick) {
			it := stats.InstantThroughput(completed, elapsedMin)
			if deficit := e.TargetJPM - it; deficit > 0 {
				k := int(math.Ceil(deficit / e.TargetJPM * float64(e.MaxPerProbe)))
				for i := 0; i < k; i++ {
					p := burstLastUnsubmitted()
					if p < 0 {
						break
					}
					launch(3, "elastic", p)
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
		if remaining == 0 && vdcActive() == 0 && si >= n {
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
	res.BurstedPct = float64(res.BurstedJobs) / float64(n) * 100
	if done := res.CompletedOSG + res.CompletedVDC; done > 0 {
		res.VDCUsagePct = float64(res.CompletedVDC) / float64(done) * 100
	}
	res.VDCMinutes = vdcMinutes
	res.CostUSD = stats.BurstCost(res.VDCMinutes, cfg.CostPerMinute)
	if cfg.Obs != nil {
		// A gauge keeps only its last value, stamped with the registry's
		// clock, which the replay does not advance: one Set with the last
		// step's count leaves what a Set per step would, and none when
		// the horizon allowed no step.
		g := cfg.Obs.Gauge("fdw_burst_vdc_active_jobs", "batch", batch.Name)
		if batch.Submit <= horizon {
			g.Set(float64(vdcActive()))
		}
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
