package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"fdw/internal/sim"
)

func TestCounterGaugeBasics(t *testing.T) {
	var now sim.Time = 100
	r := NewRegistry(func() sim.Time { return now })

	c := r.Counter("jobs_total", "phase", "a")
	c.Inc()
	now = 250
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter value %d, want 5", c.Value())
	}
	// Same name+labels resolves to the same instrument; label order is
	// canonicalized.
	if r.Counter("jobs_total", "phase", "a") != c {
		t.Fatal("counter identity not stable")
	}
	if r.Counter("jobs_total", "phase", "b") == c {
		t.Fatal("distinct labels collapsed")
	}

	g := r.Gauge("queue_depth")
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge value %v, want 7", g.Value())
	}
	if g.At() != 250 {
		t.Fatalf("gauge at %v, want sim t=250", g.At())
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry(nil)
	a := r.Counter("x", "b", "2", "a", "1")
	b := r.Counter("x", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order changed metric identity")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 1 {
		t.Fatalf("got %d counters, want 1", len(snap.Counters))
	}
	if snap.Counters[0].Labels["a"] != "1" || snap.Counters[0].Labels["b"] != "2" {
		t.Fatalf("labels %v", snap.Counters[0].Labels)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(3)
	r.Histogram("h").Observe(1)
	sp := r.StartSpan("job", "1.0")
	sp.Annotate("submit")
	sp.End("completed")
	if r.SpanCount() != 0 || r.Now() != 0 {
		t.Fatal("nil registry retained state")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Spans) != 0 {
		t.Fatalf("nil registry snapshot non-empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry(nil)
	h := r.HistogramBuckets("wait_seconds", []float64{1, 2, 5, 10, 100})
	// 100 samples uniform over (0, 10]: v = 0.1, 0.2, ..., 10.0.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 10)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if got, want := h.Sum(), 505.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum %v, want %v", got, want)
	}
	// Exact quantiles are 5.0 / 9.0 / 9.9; bucketed estimates must land
	// inside the right bucket.
	if p50 := h.Quantile(0.50); p50 < 2 || p50 > 5 {
		t.Fatalf("p50 %v outside (2,5] bucket", p50)
	}
	if p90 := h.Quantile(0.90); p90 < 5 || p90 > 10 {
		t.Fatalf("p90 %v outside (5,10] bucket", p90)
	}
	if q0 := h.Quantile(0); q0 != 0.1 {
		t.Fatalf("q0 %v, want observed min 0.1", q0)
	}
	if q1 := h.Quantile(1); q1 != 10 {
		t.Fatalf("q1 %v, want observed max 10", q1)
	}
	// Monotone in q.
	prev := 0.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone: q=%v -> %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := NewRegistry(nil)
	h := r.HistogramBuckets("x", []float64{1, 10})
	h.Observe(5)
	h.Observe(1000) // beyond the last bound → implicit +Inf bucket
	if h.Count() != 2 {
		t.Fatalf("count %d", h.Count())
	}
	if p99 := h.Quantile(0.99); p99 < 10 || p99 > 1000 {
		t.Fatalf("p99 %v outside overflow bucket (10, max]", p99)
	}
}

func TestSpanLifecycle(t *testing.T) {
	var now sim.Time
	r := NewRegistry(func() sim.Time { return now })
	sp := r.StartSpan("job", "w1/1.0")
	sp.Annotate("submit")
	now = 30
	sp.Annotate("match")
	sp.AnnotateAt("input_transfer", 30, 12.5)
	sp.AnnotateAt("execute", 42.5, 0)
	now = 200
	sp.End("completed")
	sp.End("ignored-second-end")

	if !sp.Ended() || sp.Status() != "completed" {
		t.Fatalf("ended=%v status=%q", sp.Ended(), sp.Status())
	}
	if sp.DurationSeconds() != 200 {
		t.Fatalf("duration %v", sp.DurationSeconds())
	}
	evs := sp.Events()
	want := []string{"submit", "match", "input_transfer", "execute"}
	if len(evs) != len(want) {
		t.Fatalf("%d events, want %d", len(evs), len(want))
	}
	for i, name := range want {
		if evs[i].Name != name {
			t.Fatalf("event %d = %q, want %q", i, evs[i].Name, name)
		}
	}
	if evs[2].Value != 12.5 {
		t.Fatalf("input_transfer value %v", evs[2].Value)
	}
	if r.SpanCount() != 1 {
		t.Fatalf("span count %d", r.SpanCount())
	}
}

func TestSpanLimit(t *testing.T) {
	r := NewRegistry(func() sim.Time { return 0 })
	for i := 0; i < SpanLimit+3; i++ {
		sp := r.StartSpan("job", "x")
		sp.End("done") // dropped spans must still be safe to use
	}
	if r.SpanCount() != SpanLimit {
		t.Fatalf("retained %d spans, want %d", r.SpanCount(), SpanLimit)
	}
	if r.SpansDropped() != 3 {
		t.Fatalf("dropped %d, want 3", r.SpansDropped())
	}
}

// Spans need a clock, and a span nobody records costs nothing: on a
// nil, an unclocked and a full registry StartSpan hands out the shared
// inert span without allocating.
func TestStartSpanInertAllocatesNothing(t *testing.T) {
	full := NewRegistry(func() sim.Time { return 0 })
	for i := 0; i < SpanLimit; i++ {
		full.StartSpan("job", "x")
	}
	for _, c := range []struct {
		name string
		r    *Registry
	}{{"nil", nil}, {"unclocked", NewRegistry(nil)}, {"full", full}} {
		if c.r.RecordsSpans() != (c.r == full) {
			t.Errorf("%s: RecordsSpans() = %v", c.name, c.r.RecordsSpans())
		}
		allocs := testing.AllocsPerRun(100, func() {
			sp := c.r.StartSpan("job", "1.0")
			sp.Annotate("submit")
			sp.End("completed")
		})
		if allocs != 0 {
			t.Errorf("%s: StartSpan allocated %v times per call, want 0", c.name, allocs)
		}
	}
	if full.SpanCount() != SpanLimit || full.SpansDropped() != 101 {
		t.Fatalf("full registry kept %d spans and dropped %d, want %d and 101",
			full.SpanCount(), full.SpansDropped(), SpanLimit)
	}
	if NewRegistry(nil).Snapshot().Spans != nil {
		t.Fatal("unclocked registry recorded a span")
	}
}

func TestJSONSnapshotRoundTrip(t *testing.T) {
	var now sim.Time = 60
	r := NewRegistry(func() sim.Time { return now })
	r.Counter("events_total", "type", "submit").Add(3)
	r.Gauge("slots_busy").Set(12)
	h := r.HistogramBuckets("exec_seconds", []float64{10, 100})
	h.Observe(42)
	sp := r.StartSpan("job", "1.0")
	sp.Annotate("submit")
	now = 90
	sp.End("completed")

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SimNow != 90 {
		t.Fatalf("sim_now %v", snap.SimNow)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 3 || snap.Counters[0].Labels["type"] != "submit" {
		t.Fatalf("counters %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 12 {
		t.Fatalf("gauges %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 1 || snap.Histograms[0].Sum != 42 {
		t.Fatalf("histograms %+v", snap.Histograms)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Status != "completed" || snap.Spans[0].End != 90 {
		t.Fatalf("spans %+v", snap.Spans)
	}
	// Text rendering of the decoded snapshot.
	var txt bytes.Buffer
	if err := snap.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"events_total", "slots_busy", "exec_seconds", "spans"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("text summary missing %q:\n%s", want, txt.String())
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry(nil)
	r.Counter("fdw_events_total", "type", "submit").Add(7)
	r.Gauge("fdw_slots_busy").Set(3.5)
	h := r.HistogramBuckets("fdw_exec_seconds", []float64{10, 100})
	h.Observe(42)
	h.Observe(420)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE fdw_events_total counter",
		`fdw_events_total{type="submit"} 7`,
		"# TYPE fdw_slots_busy gauge",
		"fdw_slots_busy 3.5",
		"# TYPE fdw_exec_seconds histogram",
		`fdw_exec_seconds_bucket{le="100"} 1`,
		`fdw_exec_seconds_bucket{le="+Inf"} 2`,
		"fdw_exec_seconds_sum 462",
		"fdw_exec_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryRaceClean hammers one registry from many goroutines; the
// -race pass in scripts/check.sh is the actual assertion.
func TestRegistryRaceClean(t *testing.T) {
	r := NewRegistry(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c", "g", string(rune('a'+g))).Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(float64(i))
				sp := r.StartSpan("job", "x")
				sp.Annotate("submit")
				sp.End("completed")
				if i%100 == 0 {
					var buf bytes.Buffer
					_ = r.WritePrometheus(&buf)
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for g := 0; g < 8; g++ {
		total += r.Counter("c", "g", string(rune('a'+g))).Value()
	}
	if total != 8*500 {
		t.Fatalf("counter total %d, want %d", total, 8*500)
	}
	if r.Histogram("h").Count() != 8*500 {
		t.Fatalf("hist count %d", r.Histogram("h").Count())
	}
}
