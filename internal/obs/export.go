package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"fdw/internal/sim"
)

// Snapshot is the exported state of a registry at one moment: every
// metric with its last-update sim.Time, histogram buckets and quantile
// estimates, and the retained spans. The JSON rendering of a Snapshot
// is the `-metrics` file format of cmd/fdw and cmd/fdwexp.
type Snapshot struct {
	SimNow       float64       `json:"sim_now"`
	Counters     []CounterSnap `json:"counters,omitempty"`
	Gauges       []GaugeSnap   `json:"gauges,omitempty"`
	Histograms   []HistSnap    `json:"histograms,omitempty"`
	Spans        []SpanSnap    `json:"spans,omitempty"`
	SpansDropped uint64        `json:"spans_dropped,omitempty"`
}

// CounterSnap is one counter's exported state.
type CounterSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
	At     float64           `json:"at"`
}

// GaugeSnap is one gauge's exported state.
type GaugeSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	At     float64           `json:"at"`
}

// BucketSnap is one cumulative histogram bucket (Prometheus "le").
type BucketSnap struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistSnap is one histogram's exported state. Buckets are cumulative;
// the +Inf bucket equals Count and is omitted.
type HistSnap struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets []BucketSnap      `json:"buckets,omitempty"`
	At      float64           `json:"at"`
}

// SpanSnap is one span's exported state.
type SpanSnap struct {
	Kind   string      `json:"kind"`
	ID     string      `json:"id"`
	Start  float64     `json:"start"`
	End    float64     `json:"end,omitempty"`
	Status string      `json:"status,omitempty"`
	Events []SpanEvent `json:"events,omitempty"`
}

func pairsToMap(pairs [][2]string) map[string]string {
	if len(pairs) == 0 {
		return nil
	}
	m := make(map[string]string, len(pairs))
	for _, p := range pairs {
		m[p[0]] = p[1]
	}
	return m
}

// Snapshot captures the registry's current state, deterministically
// ordered: metrics by canonical key, spans by (start, kind, id).
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap.SimNow = float64(r.nowLocked())
	snap.SpansDropped = r.spansDropped

	for _, k := range sortedKeys(r.counters) {
		c := r.counters[k]
		snap.Counters = append(snap.Counters, CounterSnap{
			Name: c.name, Labels: pairsToMap(c.pairs), Value: c.v, At: float64(c.at),
		})
	}

	for _, k := range sortedKeys(r.gauges) {
		g := r.gauges[k]
		snap.Gauges = append(snap.Gauges, GaugeSnap{
			Name: g.name, Labels: pairsToMap(g.pairs), Value: g.v, At: float64(g.at),
		})
	}

	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		hs := HistSnap{
			Name: h.name, Labels: pairsToMap(h.pairs),
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			P50: h.quantileLocked(0.50), P90: h.quantileLocked(0.90), P99: h.quantileLocked(0.99),
			At: float64(h.at),
		}
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i]
			if cum > 0 {
				hs.Buckets = append(hs.Buckets, BucketSnap{LE: b, Count: cum})
			}
		}
		snap.Histograms = append(snap.Histograms, hs)
	}

	for _, s := range r.spans {
		ss := SpanSnap{Kind: s.kind, ID: s.id, Start: float64(s.start), Status: s.status}
		if s.ended {
			ss.End = float64(s.end)
		}
		if len(s.events) > 0 {
			ss.Events = make([]SpanEvent, len(s.events))
			copy(ss.Events, s.events)
		}
		snap.Spans = append(snap.Spans, ss)
	}
	sort.SliceStable(snap.Spans, func(a, b int) bool {
		if snap.Spans[a].Start != snap.Spans[b].Start {
			return snap.Spans[a].Start < snap.Spans[b].Start
		}
		if snap.Spans[a].Kind != snap.Spans[b].Kind {
			return snap.Spans[a].Kind < snap.Spans[b].Kind
		}
		return snap.Spans[a].ID < snap.Spans[b].ID
	})
	return snap
}

// WriteJSON writes the indented JSON snapshot — the `-metrics` dump
// format.
func (r *Registry) WriteJSON(w io.Writer) error {
	return WriteSnapshotJSON(w, r.Snapshot())
}

// ReadSnapshot parses a JSON snapshot written by WriteJSON. Snapshots
// are written whole, so anything but whitespace after the JSON value is
// corruption, not a second value to ignore.
func ReadSnapshot(rd io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("obs: bad snapshot: %w", err)
	}
	rest, err := io.ReadAll(io.MultiReader(dec.Buffered(), rd))
	if err != nil {
		return nil, fmt.Errorf("obs: bad snapshot: %w", err)
	}
	if tail := bytes.TrimLeft(rest, " \t\r\n"); len(tail) > 0 {
		return nil, fmt.Errorf("obs: bad snapshot: trailing data at offset %d", dec.InputOffset()+int64(len(rest)-len(tail)))
	}
	return &s, nil
}

func promLabels(labels map[string]string, extra ...string) string {
	out := ""
	for _, k := range sortedKeys(labels) {
		if out != "" {
			out += ","
		}
		out += k + `="` + labels[k] + `"`
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if out != "" {
			out += ","
		}
		out += extra[i] + `="` + extra[i+1] + `"`
	}
	if out == "" {
		return ""
	}
	return "{" + out + "}"
}

func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): counters and gauges as samples, histograms
// as cumulative _bucket/_sum/_count families. Spans are not exported
// here (they live in the JSON snapshot); a fdw_spans_total gauge
// reports how many are retained.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	seenType := map[string]bool{}
	emitType := func(name, typ string) {
		if !seenType[name] {
			seenType[name] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
		}
	}
	for _, c := range snap.Counters {
		emitType(c.Name, "counter")
		if _, err := fmt.Fprintf(w, "%s%s %d\n", c.Name, promLabels(c.Labels), c.Value); err != nil {
			return err
		}
	}
	for _, g := range snap.Gauges {
		emitType(g.Name, "gauge")
		if _, err := fmt.Fprintf(w, "%s%s %s\n", g.Name, promLabels(g.Labels), promFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range snap.Histograms {
		emitType(h.Name, "histogram")
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				h.Name, promLabels(h.Labels, "le", promFloat(b.LE)), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			h.Name, promLabels(h.Labels, "le", "+Inf"), h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.Name, promLabels(h.Labels), promFloat(h.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", h.Name, promLabels(h.Labels), h.Count); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE fdw_spans_retained gauge\nfdw_spans_retained %d\n", len(snap.Spans))
	return err
}

// WriteText renders a human-readable summary of a snapshot — the block
// cmd/fdwmon prints alongside its log-derived statistics.
func (s *Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "metrics snapshot at sim t=%s\n", sim.Time(s.SimNow)); err != nil {
		return err
	}
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "  counter %-44s %12d\n", c.Name+promLabels(c.Labels), c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "  gauge   %-44s %12.2f (at %s)\n",
			g.Name+promLabels(g.Labels), g.Value, sim.Time(g.At)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "  hist    %-44s n=%d sum=%.1f p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
			h.Name+promLabels(h.Labels), h.Count, h.Sum, h.P50, h.P90, h.P99, h.Max); err != nil {
			return err
		}
	}
	if len(s.Spans) > 0 {
		if _, err := fmt.Fprintf(w, "  spans   %d retained (%d dropped)\n", len(s.Spans), s.SpansDropped); err != nil {
			return err
		}
	}
	return nil
}
