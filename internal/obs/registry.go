// Package obs is FDW's simulation-clock-aware observability layer: a
// metrics registry (counters, gauges, histograms) and lightweight
// job-lifecycle spans, all timestamped by sim.Time rather than
// wall-clock, with Prometheus text and JSON snapshot exporters.
//
// The layer obeys one hard rule (DESIGN.md §7/§8): instrumentation
// must never perturb results. Nothing in this package draws from the
// simulation RNG, schedules events, or feeds values back into model
// decisions — a registry only records what deterministic code already
// did, so every figure and CSV is byte-identical with metrics enabled
// or disabled (asserted by TestFiguresIdenticalWithMetricsEnabled).
//
// A nil *Registry is a valid no-op sink: every method on a nil
// registry returns a nil instrument, whose methods are no-ops, so
// instrumented subsystems call r.Counter(...).Inc() unconditionally and
// pay only a map-free fast path when observability is off.
//
// The registry is safe for concurrent use, but the experiment harness
// gives every cell its own unclocked registry and folds the cells'
// snapshots into the campaign's with Absorb, in canonical cell order,
// so a campaign's snapshot is byte-identical for any worker count,
// shard merge or scheduler merge. Spans need a clock: only clocked
// registries (cmd/fdw's, the scheduler's control plane) record them.
package obs

import (
	"sort"
	"sync"

	"fdw/internal/sim"
)

// Clock reports the current simulated time. A nil Clock timestamps
// everything at 0 (useful for wall-clock-free contexts like the VDC
// HTTP portal, where only the values matter).
type Clock func() sim.Time

// SpanLimit bounds retained spans per registry; a 16k-waveform FDW
// batch is ~9k jobs, so one workflow's lifecycle fits. Spans past the
// limit are counted (Snapshot.SpansDropped) but not stored.
const SpanLimit = 16384

// Registry holds the instruments of one observed run.
type Registry struct {
	clock Clock

	mu           sync.Mutex
	counters     map[string]*Counter
	gauges       map[string]*Gauge
	hists        map[string]*Histogram
	spans        []*Span
	spansDropped uint64
}

// NewRegistry returns an empty registry timestamped by clock (nil =
// always sim.Time 0).
func NewRegistry(clock Clock) *Registry {
	return &Registry{
		clock:    clock,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// SetClock rebinds the registry's simulation clock; the zero of a new
// environment typically calls this before any events run.
func (r *Registry) SetClock(clock Clock) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// now reads the clock under the registry lock (callers hold r.mu).
func (r *Registry) nowLocked() sim.Time {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

// labelPairs converts alternating key/value arguments into sorted
// pairs; an odd trailing key is dropped.
func labelPairs(kv []string) [][2]string {
	n := len(kv) / 2
	if n == 0 {
		return nil
	}
	pairs := make([][2]string, 0, n)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, [2]string{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] })
	return pairs
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// metricKey renders the canonical identity of a metric: its name plus
// the sorted label set, in Prometheus exposition syntax.
func metricKey(name string, pairs [][2]string) string {
	if len(pairs) == 0 {
		return name
	}
	out := name + "{"
	for i, p := range pairs {
		if i > 0 {
			out += ","
		}
		out += p[0] + `="` + p[1] + `"`
	}
	return out + "}"
}

// Counter is a monotonically increasing integer metric. Integer
// arithmetic commutes, so counter totals roll up exactly in any
// order.
type Counter struct {
	r     *Registry
	name  string
	pairs [][2]string

	v  uint64
	at sim.Time
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string, labelKV ...string) *Counter {
	if r == nil {
		return nil
	}
	pairs := labelPairs(labelKV)
	key := metricKey(name, pairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{r: r, name: name, pairs: pairs}
		r.counters[key] = c
	}
	return c
}

// Add increases the counter by n. A nil counter ignores it.
func (c *Counter) Add(n uint64) {
	if c == nil || c.r == nil {
		return
	}
	c.r.mu.Lock()
	c.v += n
	c.at = c.r.nowLocked()
	c.r.mu.Unlock()
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Gauge is a point-in-time value with its last-update sim.Time.
type Gauge struct {
	r     *Registry
	name  string
	pairs [][2]string

	v  float64
	at sim.Time
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string, labelKV ...string) *Gauge {
	if r == nil {
		return nil
	}
	pairs := labelPairs(labelKV)
	key := metricKey(name, pairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{r: r, name: name, pairs: pairs}
		r.gauges[key] = g
	}
	return g
}

// Set stores v, stamped with the current simulated time. A nil gauge
// ignores it.
func (g *Gauge) Set(v float64) {
	if g == nil || g.r == nil {
		return
	}
	g.r.mu.Lock()
	g.v = v
	g.at = g.r.nowLocked()
	g.r.mu.Unlock()
}

// DefaultBuckets covers the durations FDW observes — sub-second cache
// probes up to multi-day batch horizons (upper bounds in seconds).
var DefaultBuckets = []float64{
	0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10, 30,
	60, 120, 300, 600, 1800, 3600, 7200, 14400, 43200, 86400, 259200,
}

// Histogram accumulates observations into fixed buckets plus exact
// count/sum/min/max, supporting quantile estimates from the buckets.
type Histogram struct {
	r     *Registry
	name  string
	pairs [][2]string

	bounds   []float64 // ascending upper bounds; +Inf bucket is implicit
	counts   []uint64  // len(bounds)+1
	count    uint64
	sum      float64
	min, max float64
	at       sim.Time
}

// Histogram returns (registering on first use) the named histogram
// with DefaultBuckets.
func (r *Registry) Histogram(name string, labelKV ...string) *Histogram {
	return r.HistogramBuckets(name, DefaultBuckets, labelKV...)
}

// HistogramBuckets returns the named histogram, creating it with the
// given ascending upper bounds on first use (later calls keep the
// original bounds).
func (r *Registry) HistogramBuckets(name string, bounds []float64, labelKV ...string) *Histogram {
	if r == nil {
		return nil
	}
	pairs := labelPairs(labelKV)
	key := metricKey(name, pairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		h = &Histogram{r: r, name: name, pairs: pairs, bounds: b, counts: make([]uint64, len(b)+1)}
		r.hists[key] = h
	}
	return h
}

// Observe records one sample. A nil histogram ignores it.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.r == nil {
		return
	}
	h.r.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.at = h.r.nowLocked()
	h.r.mu.Unlock()
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		next := cum + float64(c)
		if rank <= next && c > 0 {
			lo := h.min
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.max
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if lo < h.min {
				lo = h.min
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return h.max
}
