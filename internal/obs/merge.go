package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"fdw/internal/sim"
)

// Absorb folds a snapshot into the registry, the one way metrics roll
// up: every campaign executor absorbs its cells' snapshots in
// canonical cell order (DESIGN.md §8). Counters add; a gauge takes the
// absorbed sample, so canonical order leaves a serial run's last
// writer; histograms add per-bound counts, Count and Sum and combine
// Min and Max, so Snapshot reports the quantiles one registry fed the
// same samples would. At is the later one (a gauge's, the absorbed
// one); a new histogram takes DefaultBuckets; SimNow is not absorbed.
//
// Snapshots arrive from bundles on disk, so all of it is checked
// before any is applied: spans, a histogram listed twice, a bucket
// bound the histogram does not have, buckets that are not cumulative
// or hold more than Count, non-finite moments and Min > Max are errors
// naming the metric. A nil registry absorbs nothing.
func (r *Registry) Absorb(s *Snapshot) error {
	if r == nil || s == nil {
		return nil
	}
	if len(s.Spans) > 0 || s.SpansDropped > 0 {
		return fmt.Errorf("obs: absorb: snapshot carries %d spans (%d dropped); spans do not roll up",
			len(s.Spans), s.SpansDropped)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	counts := make([][]uint64, len(s.Histograms))
	seen := map[string]bool{}
	for i, h := range s.Histograms {
		key := metricKey(h.Name, mapPairs(h.Labels))
		bounds := DefaultBuckets
		if got := r.hists[key]; got != nil {
			bounds = got.bounds
		}
		var err error
		if counts[i], err = histCounts(h, bounds); err == nil && seen[key] {
			err = fmt.Errorf("listed twice")
		}
		if err != nil {
			return fmt.Errorf("obs: absorb: histogram %q: %w", key, err)
		}
		seen[key] = true
	}

	for _, c := range s.Counters {
		pairs := mapPairs(c.Labels)
		key := metricKey(c.Name, pairs)
		got, ok := r.counters[key]
		if !ok {
			got = &Counter{r: r, name: c.Name, pairs: pairs}
			r.counters[key] = got
		}
		got.v += c.Value
		got.at = max(got.at, sim.Time(c.At))
	}
	for _, g := range s.Gauges {
		pairs := mapPairs(g.Labels)
		key := metricKey(g.Name, pairs)
		got, ok := r.gauges[key]
		if !ok {
			got = &Gauge{r: r, name: g.Name, pairs: pairs}
			r.gauges[key] = got
		}
		got.v, got.at = g.Value, sim.Time(g.At)
	}
	for i, h := range s.Histograms {
		pairs := mapPairs(h.Labels)
		key := metricKey(h.Name, pairs)
		got, ok := r.hists[key]
		if !ok {
			got = &Histogram{r: r, name: h.Name, pairs: pairs, counts: make([]uint64, len(DefaultBuckets)+1),
				bounds: append([]float64(nil), DefaultBuckets...)}
			r.hists[key] = got
		}
		if h.Count > 0 && (got.count == 0 || h.Min < got.min) {
			got.min = h.Min
		}
		if h.Count > 0 && (got.count == 0 || h.Max > got.max) {
			got.max = h.Max
		}
		for j, n := range counts[i] {
			got.counts[j] += n
		}
		got.count += h.Count
		got.sum += h.Sum
		got.at = max(got.at, sim.Time(h.At))
	}
	return nil
}

// mapPairs converts a snapshot's label map into sorted label pairs.
func mapPairs(labels map[string]string) [][2]string {
	var pairs [][2]string
	for _, k := range sortedKeys(labels) {
		pairs = append(pairs, [2]string{k, labels[k]})
	}
	return pairs
}

// histCounts checks h and turns its cumulative buckets into
// per-bucket counts over bounds, the +Inf bucket last.
func histCounts(h HistSnap, bounds []float64) ([]uint64, error) {
	for _, v := range []float64{h.Sum, h.Min, h.Max} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("non-finite moments (sum %v, min %v, max %v)", h.Sum, h.Min, h.Max)
		}
	}
	if h.Min > h.Max {
		return nil, fmt.Errorf("min %v > max %v", h.Min, h.Max)
	}
	counts := make([]uint64, len(bounds)+1)
	next, cum := 0, uint64(0)
	for _, b := range h.Buckets {
		i := sort.SearchFloat64s(bounds, b.LE)
		if i == len(bounds) || bounds[i] != b.LE {
			return nil, fmt.Errorf("bucket le=%v is not one of its bounds", b.LE)
		}
		if i < next || b.Count < cum {
			return nil, fmt.Errorf("buckets are not cumulative at le=%v", b.LE)
		}
		counts[i] = b.Count - cum
		next, cum = i+1, b.Count
	}
	if cum > h.Count {
		return nil, fmt.Errorf("buckets hold %d samples, count is %d", cum, h.Count)
	}
	counts[len(bounds)] = h.Count - cum
	return counts, nil
}

// WriteSnapshotJSON renders a snapshot in the same indented JSON format
// as Registry.WriteJSON, so rollups and live dumps are interchangeable
// inputs to ReadSnapshot.
func WriteSnapshotJSON(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
