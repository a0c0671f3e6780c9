package recovery

import (
	"reflect"
	"strings"
	"testing"

	"fdw/internal/htcondor"
	"fdw/internal/ospool"
	"fdw/internal/sim"
)

func TestRetryDelaySchedule(t *testing.T) {
	r := New(sim.NewKernel(7))

	// Same seed, same call sequence → identical delays: the backoff
	// stream is part of the reproducible setup.
	twin := New(sim.NewKernel(7))
	var delays, twinDelays []sim.Time
	for attempt := 1; attempt <= 8; attempt++ {
		delays = append(delays, r.RetryDelay("n", attempt))
		twinDelays = append(twinDelays, twin.RetryDelay("n", attempt))
	}
	if !reflect.DeepEqual(delays, twinDelays) {
		t.Fatalf("same-seed delays diverge:\n%v\n%v", delays, twinDelays)
	}
	// Jitter bounds: attempt k's nominal delay is min(30·2^(k-1), 600),
	// so attempts 6–8 sit at the ceiling.
	nominal := []float64{30, 60, 120, 240, 480, 600, 600, 600}
	for i, d := range delays {
		lo, hi := nominal[i]*0.75, nominal[i]*1.25
		if float64(d) < lo || float64(d) > hi {
			t.Fatalf("attempt %d delay %v outside [%v, %v]", i+1, d, lo, hi)
		}
	}
	if st := r.Stats(); st.BackoffHolds != 8 || st.BackoffSeconds <= 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	r := New(sim.NewKernel(3))
	fail := func(site string, now sim.Time) { r.AttemptEnded(site, nil, ospool.AttemptFailed, 10, now) }
	ok := func(site string, now sim.Time) { r.AttemptEnded(site, nil, ospool.AttemptOK, 10, now) }

	if r.VetoMatch("a", 0) {
		t.Fatal("fresh site vetoed")
	}
	// Three failures, a success, three more failures: the success
	// resets the consecutive count, so the breaker stays closed.
	fail("a", 1)
	fail("a", 2)
	fail("a", 3)
	ok("a", 4)
	fail("a", 5)
	fail("a", 6)
	fail("a", 7)
	if r.breakerStateOf("a") != breakerClosed {
		t.Fatal("breaker opened despite interleaved success")
	}
	// A fourth consecutive failure opens it.
	fail("a", 8)
	if r.breakerStateOf("a") != breakerOpen || !r.VetoMatch("a", 50) {
		t.Fatalf("state %v after threshold", r.breakerStateOf("a"))
	}
	if got := r.OpenBreakers(50); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("open breakers %v", got)
	}
	// Deadline evictions and preemptions are breaker-neutral.
	for now := sim.Time(55); now < 59; now++ {
		r.AttemptEnded("b", nil, ospool.AttemptDeadline, 10, now)
	}
	r.AttemptEnded("b", nil, ospool.AttemptPreempted, 10, 59)
	if r.breakerStateOf("b") != breakerClosed || r.VetoMatch("b", 60) {
		t.Fatal("site-neutral outcomes moved a breaker")
	}
	// The 1800 s cooldown runs from the opening failure at t=8.
	if !r.VetoMatch("a", 1807) {
		t.Fatal("site admitted before the cooldown elapsed")
	}
	// Cooldown elapses: the breaker half-opens and admits exactly two
	// probe attempts.
	if r.VetoMatch("a", 1808) {
		t.Fatal("cooldown elapsed but site still vetoed")
	}
	if r.breakerStateOf("a") != breakerHalfOpen {
		t.Fatalf("state %v after cooldown", r.breakerStateOf("a"))
	}
	r.AttemptStarted("a", nil, 1809)
	if r.VetoMatch("a", 1810) {
		t.Fatal("second probe slot vetoed")
	}
	r.AttemptStarted("a", nil, 1810)
	if !r.VetoMatch("a", 1811) {
		t.Fatal("probe budget exhausted but site not vetoed")
	}
	// A failed probe reopens for another full cooldown.
	fail("a", 1820)
	if r.breakerStateOf("a") != breakerOpen || !r.VetoMatch("a", 3619) {
		t.Fatalf("state %v after failed probe", r.breakerStateOf("a"))
	}
	// Next cooldown: a successful probe closes the breaker for good.
	if r.VetoMatch("a", 3620) {
		t.Fatal("second cooldown elapsed but site still vetoed")
	}
	r.AttemptStarted("a", nil, 3621)
	ok("a", 3630)
	if r.breakerStateOf("a") != breakerClosed || r.VetoMatch("a", 3631) {
		t.Fatalf("state %v after successful probe", r.breakerStateOf("a"))
	}
	if len(r.OpenBreakers(3631)) != 0 {
		t.Fatalf("open breakers %v after close", r.OpenBreakers(3631))
	}
	st := r.Stats()
	if st.BreakerOpens != 2 || st.BreakerHalfOpens != 2 || st.BreakerCloses != 1 || st.DeadlineEvictions != 4 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOpenBreakersSorted(t *testing.T) {
	r := New(sim.NewKernel(4))
	for _, site := range []string{"zeta", "alpha", "mid"} {
		for i := 0; i < breakerFailureThreshold; i++ {
			r.AttemptEnded(site, nil, ospool.AttemptFailed, 1, 10)
		}
	}
	if got := r.OpenBreakers(20); !reflect.DeepEqual(got, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("open breakers %v, want sorted", got)
	}
}

func TestJobDeadlineLoosensWithEvictions(t *testing.T) {
	r := New(sim.NewKernel(5))
	j := &htcondor.Job{BaseExecSeconds: 100}
	if d := r.JobDeadlineSeconds(j, 0); d != 6*100+900 {
		t.Fatalf("deadline %v, want 1500", d)
	}
	j.Evictions = 2
	if d := r.JobDeadlineSeconds(j, 0); d != 1500*4 {
		t.Fatalf("deadline %v after 2 evictions, want 6000", d)
	}
	// The doubling caps at 8, so even an absurd eviction count yields a
	// finite budget.
	j.Evictions = 50
	if d := r.JobDeadlineSeconds(j, 0); d != 1500*256 {
		t.Fatalf("deadline %v after 50 evictions, want 384000", d)
	}
}

func TestQuantileOf(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	cases := []struct {
		q    float64
		want float64
	}{{0.25, 10}, {0.5, 20}, {0.75, 30}, {1.0, 40}, {0.01, 10}}
	for _, c := range cases {
		if got := quantileOf(xs, c.q); got != c.want {
			t.Fatalf("q=%v: got %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{40, 10, 30, 20}) {
		t.Fatalf("quantileOf mutated its input: %v", xs)
	}
	if got := quantileOf([]float64{7}, 0.5); got != 7 {
		t.Fatalf("singleton quantile %v", got)
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[breakerState]string{
		breakerClosed: "closed", breakerOpen: "open", breakerHalfOpen: "half-open",
	} {
		if s.String() != want {
			t.Fatalf("%d → %q", int(s), s.String())
		}
	}
	if !strings.Contains(breakerState(9).String(), "9") {
		t.Fatal("unknown state string")
	}
}

// Stats returns the policy's cumulative decision counters.
func (r *Policy) Stats() Stats { return r.stats }
