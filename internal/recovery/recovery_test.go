package recovery

import (
	"reflect"
	"strings"
	"testing"

	"fdw/internal/htcondor"
	"fdw/internal/ospool"
	"fdw/internal/sim"
)

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config claims to be enabled")
	}
	if !DefaultConfig().Enabled() {
		t.Fatal("default config claims to be disabled")
	}

	bad := []func(*Config){
		func(c *Config) { c.Backoff = BackoffConfig{Enabled: true} },
		func(c *Config) { c.Backoff.Factor = 0.5 },
		func(c *Config) { c.Backoff.MaxSeconds = c.Backoff.BaseSeconds / 2 },
		func(c *Config) { c.Backoff.Jitter = 1 },
		func(c *Config) { c.Breaker = BreakerConfig{Enabled: true} },
		func(c *Config) { c.Breaker.CooldownSeconds = -1 },
		func(c *Config) { c.Breaker.HalfOpenProbes = 0 },
		func(c *Config) { c.Deadline = DeadlineConfig{Enabled: true} },
		func(c *Config) { c.Deadline.GraceSeconds = -1 },
		func(c *Config) { c.Hedge = HedgeConfig{Enabled: true} },
		func(c *Config) { c.Hedge.Multiplier = 1 },
		func(c *Config) { c.Hedge.MinSiblings = 1 },
	}
	cfg := DefaultConfig()
	for i, mutate := range bad {
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted: %+v", i, cfg)
		}
	}
	// Disabled mechanisms are never checked: break every parameter but
	// turn everything off.
	cfg.Backoff.Enabled = false
	cfg.Breaker.Enabled = false
	cfg.Deadline.Enabled = false
	cfg.Hedge.Enabled = false
	if err := cfg.Validate(); err != nil {
		t.Fatalf("disabled mechanisms validated: %v", err)
	}
	if _, err := New(sim.NewKernel(1), Config{Backoff: BackoffConfig{Enabled: true}}); err == nil {
		t.Fatal("New accepted an invalid config")
	}
}

func newPolicy(t *testing.T, seed uint64, cfg Config) *Policy {
	t.Helper()
	r, err := New(sim.NewKernel(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRetryDelaySchedule(t *testing.T) {
	cfg := Config{Backoff: BackoffConfig{
		Enabled: true, BaseSeconds: 30, Factor: 2, MaxSeconds: 600, Jitter: 0.25,
	}}
	r := newPolicy(t, 7, cfg)

	// Same seed, same call sequence → identical delays: the backoff
	// stream is part of the reproducible setup.
	twin := newPolicy(t, 7, cfg)
	var delays, twinDelays []sim.Time
	for attempt := 1; attempt <= 8; attempt++ {
		delays = append(delays, r.RetryDelay("n", attempt))
		twinDelays = append(twinDelays, twin.RetryDelay("n", attempt))
	}
	if !reflect.DeepEqual(delays, twinDelays) {
		t.Fatalf("same-seed delays diverge:\n%v\n%v", delays, twinDelays)
	}
	// Jitter bounds: attempt k's nominal delay is min(base·factor^(k-1), max).
	nominal := cfg.Backoff.BaseSeconds
	for i, d := range delays {
		lo, hi := nominal*(1-cfg.Backoff.Jitter), nominal*(1+cfg.Backoff.Jitter)
		if float64(d) < lo || float64(d) > hi {
			t.Fatalf("attempt %d delay %v outside [%v, %v]", i+1, d, lo, hi)
		}
		nominal *= cfg.Backoff.Factor
		if nominal > cfg.Backoff.MaxSeconds {
			nominal = cfg.Backoff.MaxSeconds
		}
	}
	if st := r.Stats(); st.BackoffHolds != 8 || st.BackoffSeconds <= 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRetryDelayNoJitterAndDisabled(t *testing.T) {
	r := newPolicy(t, 1, Config{Backoff: BackoffConfig{
		Enabled: true, BaseSeconds: 30, Factor: 2, MaxSeconds: 200,
	}})
	want := []sim.Time{30, 60, 120, 200, 200}
	for i, w := range want {
		if d := r.RetryDelay("n", i+1); d != w {
			t.Fatalf("attempt %d delay %v, want %v", i+1, d, w)
		}
	}
	off := newPolicy(t, 1, Config{})
	if d := off.RetryDelay("n", 1); d != 0 {
		t.Fatalf("disabled backoff returned %v", d)
	}
	if st := off.Stats(); st.BackoffHolds != 0 {
		t.Fatalf("disabled backoff counted holds: %+v", st)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	cfg := Config{Breaker: BreakerConfig{
		Enabled: true, FailureThreshold: 3, CooldownSeconds: 100, HalfOpenProbes: 2,
	}}
	r := newPolicy(t, 3, cfg)
	fail := func(site string, now sim.Time) { r.AttemptEnded(site, nil, ospool.AttemptFailed, 10, now) }
	ok := func(site string, now sim.Time) { r.AttemptEnded(site, nil, ospool.AttemptOK, 10, now) }

	if r.VetoMatch("a", 0) {
		t.Fatal("fresh site vetoed")
	}
	// Two failures, a success, two more failures: the success resets the
	// consecutive count, so the breaker stays closed.
	fail("a", 1)
	fail("a", 2)
	ok("a", 3)
	fail("a", 4)
	fail("a", 5)
	if r.breakerStateOf("a") != breakerClosed {
		t.Fatal("breaker opened despite interleaved success")
	}
	// A third consecutive failure opens it.
	fail("a", 6)
	if r.breakerStateOf("a") != breakerOpen || !r.VetoMatch("a", 50) {
		t.Fatalf("state %v after threshold", r.breakerStateOf("a"))
	}
	if got := r.OpenBreakers(50); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("open breakers %v", got)
	}
	// Deadline evictions and preemptions are breaker-neutral.
	r.AttemptEnded("b", nil, ospool.AttemptDeadline, 10, 55)
	r.AttemptEnded("b", nil, ospool.AttemptDeadline, 10, 56)
	r.AttemptEnded("b", nil, ospool.AttemptDeadline, 10, 57)
	r.AttemptEnded("b", nil, ospool.AttemptPreempted, 10, 58)
	if r.breakerStateOf("b") != breakerClosed || r.VetoMatch("b", 59) {
		t.Fatal("site-neutral outcomes moved a breaker")
	}
	// Cooldown elapses: the breaker half-opens and admits exactly
	// HalfOpenProbes attempts.
	if r.VetoMatch("a", 107) {
		t.Fatal("cooldown elapsed but site still vetoed")
	}
	if r.breakerStateOf("a") != breakerHalfOpen {
		t.Fatalf("state %v after cooldown", r.breakerStateOf("a"))
	}
	r.AttemptStarted("a", nil, 108)
	if r.VetoMatch("a", 109) {
		t.Fatal("second probe slot vetoed")
	}
	r.AttemptStarted("a", nil, 109)
	if !r.VetoMatch("a", 110) {
		t.Fatal("probe budget exhausted but site not vetoed")
	}
	// A failed probe reopens for another full cooldown.
	fail("a", 120)
	if r.breakerStateOf("a") != breakerOpen || !r.VetoMatch("a", 219) {
		t.Fatalf("state %v after failed probe", r.breakerStateOf("a"))
	}
	// Next cooldown: a successful probe closes the breaker for good.
	if r.VetoMatch("a", 221) {
		t.Fatal("second cooldown elapsed but site still vetoed")
	}
	r.AttemptStarted("a", nil, 222)
	ok("a", 230)
	if r.breakerStateOf("a") != breakerClosed || r.VetoMatch("a", 231) {
		t.Fatalf("state %v after successful probe", r.breakerStateOf("a"))
	}
	if len(r.OpenBreakers(231)) != 0 {
		t.Fatalf("open breakers %v after close", r.OpenBreakers(231))
	}
	st := r.Stats()
	if st.BreakerOpens != 2 || st.BreakerHalfOpens != 2 || st.BreakerCloses != 1 || st.DeadlineEvictions != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOpenBreakersSorted(t *testing.T) {
	r := newPolicy(t, 4, Config{Breaker: BreakerConfig{
		Enabled: true, FailureThreshold: 1, CooldownSeconds: 1000, HalfOpenProbes: 1,
	}})
	for _, site := range []string{"zeta", "alpha", "mid"} {
		r.AttemptEnded(site, nil, ospool.AttemptFailed, 1, 10)
	}
	if got := r.OpenBreakers(20); !reflect.DeepEqual(got, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("open breakers %v, want sorted", got)
	}
}

func TestJobDeadlineLoosensWithEvictions(t *testing.T) {
	r := newPolicy(t, 5, Config{Deadline: DeadlineConfig{
		Enabled: true, Multiple: 6, GraceSeconds: 900,
	}})
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
	off := newPolicy(t, 5, Config{})
	if d := off.JobDeadlineSeconds(j, 0); d != 0 {
		t.Fatalf("disabled deadline returned %v", d)
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

// Enabled reports whether any mechanism is on.
func (c Config) Enabled() bool {
	return c.Backoff.Enabled || c.Breaker.Enabled || c.Deadline.Enabled || c.Hedge.Enabled
}

// Stats returns the policy's cumulative decision counters.
func (r *Policy) Stats() Stats { return r.stats }
