package burst

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
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
