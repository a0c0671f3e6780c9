package burst

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"fdw/internal/obs"
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
