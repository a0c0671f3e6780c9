package burst

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"fdw/internal/core"
	"fdw/internal/obs"
	"fdw/internal/ospool"
	"fdw/internal/sim"
	"fdw/internal/wtrace"
)

// randomTrace draws a batch that exercises every replay path: runs of
// equal submission and termination times, fractional job times, jobs
// that never start or never finish, removed jobs that finish unstarted,
// GF/matrix jobs, and (via base and a fractional batch submission)
// ticks that are not whole numbers.
func randomTrace(r *sim.RNG) (wtrace.BatchRecord, []wtrace.JobRecord) {
	classes := []wtrace.JobClass{
		wtrace.ClassRupture, wtrace.ClassWaveform, wtrace.ClassRupture,
		wtrace.ClassWaveform, wtrace.ClassGF, wtrace.ClassMatrix,
	}
	base := []float64{0, 1e6, 123456789}[r.Intn(3)]
	n := 1 + r.Intn(200)
	jobs := make([]wtrace.JobRecord, 0, n)
	clock := base
	for i := 0; i < n; i++ {
		if r.Intn(3) > 0 {
			clock += float64(r.Intn(90))
		}
		j := wtrace.JobRecord{
			ID:     fmt.Sprintf("%d.%d", i/10, i%10),
			Class:  classes[r.Intn(len(classes))],
			Submit: clock,
			Start:  -1,
			End:    -1,
		}
		if r.Intn(10) == 0 {
			j.Submit += r.Float64()
		}
		wait, exec := float64(r.Intn(2400)), float64(r.Intn(1200))
		switch r.Intn(10) {
		case 0: // never started nor finished
		case 1: // removed before it started
			j.End = j.Submit + wait
		case 2: // still running at the end of the trace
			j.Start = j.Submit + wait
		default:
			j.Start = j.Submit + wait
			j.End = j.Start + exec
		}
		jobs = append(jobs, j)
	}
	batch := wtrace.BatchRecord{Name: "prop", Submit: base, Start: math.Inf(1), End: base}
	if r.Intn(3) == 0 {
		batch.Submit -= r.Float64() * 3
	}
	for _, j := range jobs {
		if j.Started() && j.Start < batch.Start {
			batch.Start = j.Start
		}
		batch.End = math.Max(batch.End, math.Max(j.Start, j.End))
	}
	if math.IsInf(batch.Start, 1) {
		batch.Start = batch.Submit
	}
	batch.End = math.Max(batch.End, batch.Start)
	return batch, jobs
}

// randomConfig draws a policy mix over the probe intervals that matter
// to the probe test (whole, fractional, sub-second, Policy 2's default)
// and burst caps from none through one reached mid-run to uncapped.
func randomConfig(r *sim.RNG) Config {
	probes := []float64{1, 2, 1.5, 0.1, 60}
	probe := func() float64 { return probes[r.Intn(len(probes))] }
	cfg := DefaultConfig()
	cfg.MaxBurstFraction = []float64{0, 0.05, 0.3, 1}[r.Intn(4)]
	if r.Intn(2) == 0 {
		cfg.P1 = &Policy1{ProbeSecs: probe(), ThresholdJPM: 0.2 + r.Float64()*20}
	}
	if r.Intn(2) == 0 {
		cfg.P2 = &Policy2{MaxQueueSecs: float64(1 + r.Intn(1800))}
		if r.Intn(2) == 0 {
			cfg.P2.ProbeSecs = probe()
		}
	}
	if r.Intn(3) == 0 {
		cfg.P3 = &Policy3{MaxGapSecs: float64(1 + r.Intn(300)), ProbeSecs: probe()}
	}
	if r.Intn(3) == 0 {
		cfg.Elastic = &ElasticPolicy{TargetJPM: 0.2 + r.Float64()*20, ProbeSecs: probe(), MaxPerProbe: 1 + r.Intn(8)}
	}
	return cfg
}

// sameBits reports the first field where two results differ, comparing
// every float (and every InstantSeries sample) by its bit pattern.
func sameBits(a, b *Result) error {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Float64:
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return fmt.Errorf("%s: %v vs %v", name, fa.Float(), fb.Float())
			}
		case reflect.Slice:
			if fa.Len() != fb.Len() {
				return fmt.Errorf("%s: %d vs %d samples", name, fa.Len(), fb.Len())
			}
			for k := 0; k < fa.Len(); k++ {
				if math.Float64bits(fa.Index(k).Float()) != math.Float64bits(fb.Index(k).Float()) {
					return fmt.Errorf("%s[%d]: %v vs %v", name, k, fa.Index(k).Float(), fb.Index(k).Float())
				}
			}
		default:
			if fa.Interface() != fb.Interface() {
				return fmt.Errorf("%s: %v vs %v", name, fa.Interface(), fb.Interface())
			}
		}
	}
	return nil
}

// TestSimulateMatchesReference holds the replay loop to the retained
// spec (reference_test.go): every Result bit, every series sample, and
// the metrics snapshot bytes, over seeded random traces and configs.
func TestSimulateMatchesReference(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 60
	}
	r := sim.NewRNG(20)
	bursted := 0
	for c := 0; c < cases; c++ {
		batch, jobs := randomTrace(r)
		cfg := randomConfig(r)
		regWant, regGot := obs.NewRegistry(nil), obs.NewRegistry(nil)
		cfg.Obs = regWant
		want, errWant := referenceSimulate(batch, jobs, cfg)
		cfg.Obs = regGot
		got, errGot := Simulate(batch, jobs, cfg)
		if fmt.Sprint(errWant) != fmt.Sprint(errGot) {
			t.Fatalf("case %d: error %v, reference %v", c, errGot, errWant)
		}
		if errWant != nil {
			continue
		}
		if err := sameBits(want, got); err != nil {
			t.Fatalf("case %d (%d jobs, cfg %+v): %v", c, len(jobs), cfg, err)
		}
		var sw, sg bytes.Buffer
		if err := regWant.WriteJSON(&sw); err != nil {
			t.Fatal(err)
		}
		if err := regGot.WriteJSON(&sg); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sw.Bytes(), sg.Bytes()) {
			t.Fatalf("case %d: metrics snapshot differs:\n%s\nreference:\n%s", c, sg.Bytes(), sw.Bytes())
		}
		if got.BurstedJobs > 0 {
			bursted++
		}
	}
	// Guard against a generator that never reaches the policy paths.
	if bursted < cases/4 {
		t.Fatalf("only %d of %d cases bursted any job", bursted, cases)
	}
}

// TestSimulateEndTiesMatchReference holds the replay to the reference,
// whose termination order comes from sort.Slice, where that order is
// least constrained: random traces whose terminations snap to a
// 10-minute grid, so most share their end time with others, and the
// standard pool-built batch traces under the Fig. 5/6 policy grid.
func TestSimulateEndTiesMatchReference(t *testing.T) {
	type trace struct {
		batch wtrace.BatchRecord
		jobs  []wtrace.JobRecord
	}
	var traces []trace
	r := sim.NewRNG(21)
	for c := 0; c < 60; c++ {
		batch, jobs := randomTrace(r)
		for i := range jobs {
			if jobs[i].Finished() {
				jobs[i].End = math.Ceil(jobs[i].End/600) * 600
				batch.End = math.Max(batch.End, jobs[i].End)
			}
		}
		traces = append(traces, trace{batch, jobs})
	}
	for _, seed := range []uint64{11, 112} {
		env, err := core.NewEnv(seed, ospool.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Name = fmt.Sprintf("batch-%d", seed)
		cfg.Waveforms = 1600
		cfg.Seed = seed
		wf, err := core.NewWorkflow(cfg, env.Kernel, env.Pool, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.RunBatch(env, []*core.Workflow{wf}, 1000*3600); err != nil {
			t.Fatal(err)
		}
		batch, jobs, err := wtrace.FromSchedd(cfg.Name, wf.Schedd)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, trace{batch, jobs})
	}
	var configs []Config
	for _, capped := range []bool{false, true} {
		for _, probe := range []float64{1, 2, 5, 10, 30, 60, 120} {
			for _, queueM := range []float64{90, 120} {
				cfg := DefaultConfig()
				if !capped {
					cfg.MaxBurstFraction = 1
				}
				cfg.P1 = &Policy1{ProbeSecs: probe, ThresholdJPM: 34}
				cfg.P2 = &Policy2{MaxQueueSecs: queueM * 60}
				configs = append(configs, cfg)
			}
		}
	}
	configs = append(configs, DefaultConfig())
	r = sim.NewRNG(22)
	for i, tr := range traces {
		cfgs := configs
		if i < len(traces)-2 {
			cfgs = []Config{randomConfig(r), configs[0]}
		}
		for _, cfg := range cfgs {
			want, errWant := referenceSimulate(tr.batch, tr.jobs, cfg)
			got, errGot := Simulate(tr.batch, tr.jobs, cfg)
			if fmt.Sprint(errWant) != fmt.Sprint(errGot) {
				t.Fatalf("trace %d: error %v, reference %v", i, errGot, errWant)
			}
			if errWant != nil {
				continue
			}
			if err := sameBits(want, got); err != nil {
				t.Fatalf("trace %d (%d jobs, cfg %+v): %v", i, len(tr.jobs), cfg, err)
			}
		}
	}
}

// TestSortByEndOrdersJobs checks the radix sort on every byte pass:
// ties, zero, tiny, huge, fractional and ulp-apart end times come out
// ascending with every job kept.
func TestSortByEndOrdersJobs(t *testing.T) {
	r := sim.NewRNG(8)
	for c := 0; c < 200; c++ {
		jobs := make([]wtrace.JobRecord, r.Intn(600))
		idx := make([]int32, len(jobs))
		for i := range jobs {
			var end float64
			switch r.Intn(6) {
			case 0: // zero and ties
			case 1:
				end = float64(r.Intn(8))
			case 2:
				end = r.Float64() * 1e-300
			case 3:
				end = r.Float64() * 1e15
			case 4: // neighbours a few ulps apart: only the low bytes differ
				end = math.Float64frombits(math.Float64bits(3600) + uint64(r.Intn(1<<12)))
			default:
				end = 1e6 + float64(r.Intn(100000)) + r.Float64()
			}
			jobs[i].End = end
			idx[i] = int32(i)
		}
		got := sortByEnd(jobs, idx)
		if !sort.SliceIsSorted(got, func(a, b int) bool { return jobs[got[a]].End < jobs[got[b]].End }) {
			t.Fatalf("case %d: not ascending", c)
		}
		seen := make([]bool, len(jobs))
		for _, k := range got {
			seen[k] = true
		}
		for k, ok := range seen {
			if !ok {
				t.Fatalf("case %d: job %d lost", c, k)
			}
		}
	}
}

// TestSimulateNegativeZeroEnd: a job removed at -0 s ends with the
// zero-time jobs, as in the reference, not after every other job.
func TestSimulateNegativeZeroEnd(t *testing.T) {
	batch := wtrace.BatchRecord{Name: "z", Submit: 0, Start: 0, End: 5}
	jobs := []wtrace.JobRecord{
		{ID: "1.0", Class: wtrace.ClassWaveform, Submit: 0, Start: -1, End: math.Copysign(0, -1)},
		{ID: "1.1", Class: wtrace.ClassWaveform, Submit: 0, Start: 0, End: 5},
	}
	want, err := referenceSimulate(batch, jobs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(batch, jobs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(want, got); err != nil {
		t.Fatal(err)
	}
}

func TestProbeDueMatchesMathMod(t *testing.T) {
	const two53 = 1 << 53
	subnormal := math.SmallestNonzeroFloat64 * 3
	ticks := []float64{
		0, math.Copysign(0, -1), 1, 2, 3, 59, 60, 61, 119, 120, 86400, 1e15,
		two53 - 2, two53 - 1, two53, two53 + 2, two53 + 4, 3 * two53, -1, -60, -two53 + 1, -two53,
		0.5, 1.5, 2.5, 0.1, 0.3, 0.30000000000000004, 3.0000000000000004,
		two53/2 + 0.5, subnormal, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	ps := []float64{
		1, 2, 3, 60, 0.5, 1.5, 0.1, two53, two53 - 1, two53 + 2, 2 * two53,
		-1, -2, -1.5, 0, math.Copysign(0, -1), subnormal, math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, tick := range ticks {
		for _, p := range ps {
			if got, want := probeDue(tick, p), math.Mod(tick, p) == 0; got != want {
				t.Errorf("probeDue(%v, %v) = %v, math.Mod says %v", tick, p, got, want)
			}
		}
	}
	r := sim.NewRNG(53)
	for i := 0; i < 100000; i++ {
		tick := float64(r.Intn(1 << 20))
		if i%2 == 0 {
			tick = two53 - float64(r.Intn(1<<20))
		}
		if i%7 == 0 {
			tick += r.Float64()
		}
		p := float64(1 + r.Intn(200))
		if i%3 == 0 {
			p = float64(1+r.Intn(64)) / 8
		}
		if got, want := probeDue(tick, p), math.Mod(tick, p) == 0; got != want {
			t.Fatalf("probeDue(%v, %v) = %v, math.Mod says %v", tick, p, got, want)
		}
	}
}

// TestSimulateAllocsConstant pins that a replay allocates per call,
// not per job or per simulated second: the same small count at 900 and
// 9,000 jobs, spans of ~8,000 and ~40,000 seconds.
func TestSimulateAllocsConstant(t *testing.T) {
	for _, n := range []int{900, 9000} {
		batch, jobs := syntheticTrace(n, 4, 3600, 900)
		cfg := DefaultConfig()
		cfg.P1 = &Policy1{ProbeSecs: 1, ThresholdJPM: 34}
		cfg.P2 = &Policy2{MaxQueueSecs: 30 * 60}
		var res *Result
		var err error
		allocs := testing.AllocsPerRun(2, func() { res, err = Simulate(batch, jobs, cfg) })
		if err != nil {
			t.Fatal(err)
		}
		if res.BurstedJobs == 0 {
			t.Fatalf("%d jobs: nothing bursted, so the policy paths went unmeasured", n)
		}
		if allocs > 32 {
			t.Errorf("%d jobs over %.0f s: %.0f allocations per replay, want at most 32", n, res.RuntimeSecs, allocs)
		}
	}
}

// TestProbeCountdownMatchesProbeDue walks the replay clock as Simulate
// does and holds each probe schedule, countdown or not, to probeDue
// at every step.
func TestProbeCountdownMatchesProbeDue(t *testing.T) {
	for _, submit := range []float64{0, 1e6, -7, 0.5, 123456789.25, -1e15} {
		integral := submit == math.Trunc(submit)
		for _, every := range []float64{1, 2, 3, 7, 60, 120, 0.5, 1.5, 0.1, 1e-300, 1<<53 - 1, 1 << 53} {
			p := newProbe(every, integral)
			if countdown := p.next != 0; countdown != (integral && every >= 1 && every < 1<<53 && every == math.Trunc(every)) {
				t.Fatalf("submit %v, every %v: countdown %v", submit, every, countdown)
			}
			now := submit
			for step := int64(0); step < 2000; step++ {
				tick := now - submit
				if got, want := p.due(step, tick), tick > 0 && probeDue(tick, every); got != want {
					t.Fatalf("submit %v, every %v, step %d (tick %v): due %v, probeDue %v", submit, every, step, tick, got, want)
				}
				now++
			}
		}
	}
}

// TestTraceSharedByConcurrentReplays replays one prepared Trace from
// several goroutines at once, each under its own configs, and holds
// every result to the reference (run it under -race).
func TestTraceSharedByConcurrentReplays(t *testing.T) {
	r := sim.NewRNG(24)
	batch, jobs := randomTrace(r)
	for len(jobs) < 100 {
		batch, jobs = randomTrace(r)
	}
	tr, err := Prepare(batch, jobs)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var cfgs [workers][]Config
	var wants [workers][]*Result
	for w := range cfgs {
		for i := 0; i < 6; i++ {
			cfg := randomConfig(r)
			want, err := referenceSimulate(batch, jobs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfgs[w], wants[w] = append(cfgs[w], cfg), append(wants[w], want)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, cfg := range cfgs[w] {
				got, err := tr.Simulate(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if err := sameBits(wants[w][i], got); err != nil {
					t.Errorf("worker %d, config %d (%+v): %v", w, i, cfg, err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTraceSimulateAllocsConstant pins a replay of a prepared trace at
// its five buffers (result, job states, queue, VDC FIFOs, series) at
// 900 and 9,000 jobs: nothing per job, per second or per decision.
func TestTraceSimulateAllocsConstant(t *testing.T) {
	for _, n := range []int{900, 9000} {
		batch, jobs := syntheticTrace(n, 4, 3600, 900)
		tr, err := Prepare(batch, jobs)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.P1 = &Policy1{ProbeSecs: 1, ThresholdJPM: 34}
		cfg.P2 = &Policy2{MaxQueueSecs: 30 * 60}
		var res *Result
		allocs := testing.AllocsPerRun(2, func() { res, err = tr.Simulate(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		if res.BurstedJobs == 0 {
			t.Fatalf("%d jobs: nothing bursted, so the policy paths went unmeasured", n)
		}
		if allocs > 5 {
			t.Errorf("%d jobs: %.0f allocations per prepared replay, want at most 5", n, allocs)
		}
	}
}

// fuzzSpan bounds a fuzzed time's distance from the batch submission,
// and so the replays' length; fuzzBase bounds the submission itself.
const (
	fuzzSpan = 1 << 16
	fuzzBase = 1 << 40
)

// fuzzClasses are the job classes a fuzzed job's kind byte selects.
var fuzzClasses = [...]wtrace.JobClass{wtrace.ClassRupture, wtrace.ClassWaveform, wtrace.ClassGF, wtrace.ClassMatrix}

// fuzzReader reads a fuzz input; past its end every read is zero.
type fuzzReader []byte

func (b *fuzzReader) u8() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *fuzzReader) f64() float64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = b.u8()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

// within keeps v if |v| <= lim and otherwise folds it into (−lim, lim);
// ±Inf folds to NaN, which Validate rejects.
func within(v, lim float64) float64 {
	if math.Abs(v) > lim {
		return math.Mod(v, lim)
	}
	return v
}

// probeSecs decodes a probe period: within ±300 s, and no shorter than
// 1/64 s unless zero, because math.Mod's cost grows with the exponent
// gap between tick and period, and a subnormal period would make every
// probe test of a replay thousands of steps long.
func probeSecs(v float64) float64 {
	v = within(v, 300)
	if v != 0 && math.Abs(v) < 1.0/64 {
		return math.Copysign(1.0/64, v)
	}
	return v
}

// decodeCase turns fuzz bytes into a replay case. Layout, little-endian:
// a policy byte (bit 0 P1, 1 P2, 2 P3, 3 elastic); MaxBurstFraction,
// RuptureVDCSecs, WaveformVDCSecs and CostPerMinute; each enabled
// policy's floats in field order (elastic then a MaxPerProbe byte);
// batch submit, start and end; a job count byte; per job a kind byte
// (bits 0–1 class, bit 2 started, bit 3 finished) and its submit, start
// and end. Config values may be anything Validate judges, NaN included;
// trace times stay finite and within fuzzSpan of the batch submission,
// where the reference replay, which has no range checks, is exact. A
// job without its started (finished) bit has Start (End) −1.
func decodeCase(data []byte) (wtrace.BatchRecord, []wtrace.JobRecord, Config) {
	in := fuzzReader(data)
	policies := in.u8()
	cfg := DefaultConfig()
	cfg.MaxBurstFraction = within(in.f64(), 2)
	cfg.RuptureVDCSecs = within(in.f64(), 1000)
	cfg.WaveformVDCSecs = within(in.f64(), 1000)
	cfg.CostPerMinute = within(in.f64(), 1)
	if policies&1 != 0 {
		cfg.P1 = &Policy1{ProbeSecs: probeSecs(in.f64()), ThresholdJPM: within(in.f64(), 100)}
	}
	if policies&2 != 0 {
		cfg.P2 = &Policy2{MaxQueueSecs: within(in.f64(), fuzzSpan), ProbeSecs: probeSecs(in.f64())}
	}
	if policies&4 != 0 {
		cfg.P3 = &Policy3{MaxGapSecs: within(in.f64(), fuzzSpan), ProbeSecs: probeSecs(in.f64())}
	}
	if policies&8 != 0 {
		cfg.Elastic = &ElasticPolicy{TargetJPM: within(in.f64(), 100), ProbeSecs: probeSecs(in.f64())}
		cfg.Elastic.MaxPerProbe = int(in.u8())
	}
	base := within(in.f64(), fuzzBase)
	if math.IsNaN(base) {
		base = 0
	}
	at := func(v float64) float64 {
		if d := v - base; !(math.Abs(d) <= fuzzSpan) {
			if d = math.Mod(d, fuzzSpan); math.IsNaN(d) {
				d = 0
			}
			return base + d
		}
		return v
	}
	// randomTrace's batch name, so its traces decode to themselves.
	batch := wtrace.BatchRecord{Name: "prop", Submit: base, Start: at(in.f64()), End: at(in.f64())}
	jobs := make([]wtrace.JobRecord, in.u8())
	for i := range jobs {
		kind := in.u8()
		submit, start, end := at(in.f64()), at(in.f64()), at(in.f64())
		if kind&4 == 0 {
			start = -1
		}
		if kind&8 == 0 {
			end = -1
		}
		jobs[i] = wtrace.JobRecord{ID: fmt.Sprintf("%d.%d", i/10, i%10), Class: fuzzClasses[kind&3], Submit: submit, Start: start, End: end}
	}
	return batch, jobs, cfg
}

// encodeCase is decodeCase's inverse for the cases the seeds use.
func encodeCase(batch wtrace.BatchRecord, jobs []wtrace.JobRecord, cfg Config) []byte {
	var out []byte
	f64 := func(vs ...float64) {
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	var policies byte
	for i, on := range []bool{cfg.P1 != nil, cfg.P2 != nil, cfg.P3 != nil, cfg.Elastic != nil} {
		if on {
			policies |= 1 << i
		}
	}
	out = append(out, policies)
	f64(cfg.MaxBurstFraction, cfg.RuptureVDCSecs, cfg.WaveformVDCSecs, cfg.CostPerMinute)
	if cfg.P1 != nil {
		f64(cfg.P1.ProbeSecs, cfg.P1.ThresholdJPM)
	}
	if cfg.P2 != nil {
		f64(cfg.P2.MaxQueueSecs, cfg.P2.ProbeSecs)
	}
	if cfg.P3 != nil {
		f64(cfg.P3.MaxGapSecs, cfg.P3.ProbeSecs)
	}
	if e := cfg.Elastic; e != nil {
		f64(e.TargetJPM, e.ProbeSecs)
		out = append(out, byte(e.MaxPerProbe))
	}
	f64(batch.Submit, batch.Start, batch.End)
	out = append(out, byte(len(jobs)))
	for _, j := range jobs {
		kind := byte(slices.Index(fuzzClasses[:], j.Class))
		if j.Started() {
			kind |= 4
		}
		if j.Finished() {
			kind |= 8
		}
		out = append(out, kind)
		f64(j.Submit, j.Start, j.End)
	}
	return out
}

// FuzzSimulate holds Simulate to referenceSimulate on decoded traces
// and configs: no panic, and the same error or the same Result bits.
// The seeds are randomTrace/randomConfig draws (fractional times and
// batch submissions, unstarted, removed and unfinished jobs, GF/matrix
// jobs, equal times, all four policies over whole, fractional and
// sub-second probes), some with fractional or sub-second VDC times and
// caps between the grid's, a −0 end, and invalid configs.
func FuzzSimulate(f *testing.F) {
	type seed struct {
		batch wtrace.BatchRecord
		jobs  []wtrace.JobRecord
		cfg   Config
	}
	var seeds []seed
	r := sim.NewRNG(25)
	for len(seeds) < 24 {
		batch, jobs := randomTrace(r)
		if len(jobs) > 255 {
			continue
		}
		cfg := randomConfig(r)
		switch len(seeds) % 4 {
		case 1:
			cfg.RuptureVDCSecs, cfg.WaveformVDCSecs = 0.3, 143.5
		case 2:
			cfg.RuptureVDCSecs, cfg.WaveformVDCSecs, cfg.MaxBurstFraction = 1.5, 1e-300, 0.37
		}
		seeds = append(seeds, seed{batch, jobs, cfg})
	}
	zero := seed{
		batch: wtrace.BatchRecord{Name: "prop", Submit: 0, Start: 0, End: 5},
		jobs: []wtrace.JobRecord{
			{ID: "0.0", Class: wtrace.ClassWaveform, Submit: 0, Start: -1, End: math.Copysign(0, -1)},
			{ID: "0.1", Class: wtrace.ClassRupture, Submit: 0, Start: 0, End: 5},
		},
		cfg: DefaultConfig(),
	}
	zero.cfg.P1 = &Policy1{ProbeSecs: 1, ThresholdJPM: 100}
	seeds = append(seeds, zero)
	bad := seeds[0]
	bad.cfg.MaxBurstFraction = math.NaN()
	seeds = append(seeds, bad)
	for i, s := range seeds {
		data := encodeCase(s.batch, s.jobs, s.cfg)
		batch, jobs, cfg := decodeCase(data)
		// The config is all in the bytes; names and IDs are not.
		if !reflect.DeepEqual(batch, s.batch) || !reflect.DeepEqual(jobs, s.jobs) || !bytes.Equal(encodeCase(batch, jobs, cfg), data) {
			f.Fatalf("seed %d does not decode to itself", i)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, jobs, cfg := decodeCase(data)
		want, errWant := referenceSimulate(batch, jobs, cfg)
		got, errGot := Simulate(batch, jobs, cfg)
		if fmt.Sprint(errWant) != fmt.Sprint(errGot) {
			t.Fatalf("error %v, reference %v", errGot, errWant)
		}
		if errWant != nil {
			return
		}
		if err := sameBits(want, got); err != nil {
			t.Fatalf("%d jobs, cfg %+v: %v", len(jobs), cfg, err)
		}
	})
}
