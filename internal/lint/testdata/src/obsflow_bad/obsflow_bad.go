// Package obsflow_bad lets snapshot readings decide behavior in every
// way the obsflow analyzer must flag.
package obsflow_bad

import "fdw/internal/obs"

// Throttle branches on a counter: metrics deciding, the core contract
// violation.
func Throttle(r *obs.Registry) bool {
	if r.Snapshot().Counters[0].Value > 100 {
		return true
	}
	return false
}

// Drain uses a histogram count as a loop bound.
func Drain(r *obs.Registry) int {
	n := 0
	for i := uint64(0); i < r.Snapshot().Histograms[0].Count; i++ {
		n++
	}
	return n
}

// Capture squirrels a gauge reading into simulation state.
func Capture(snap *obs.Snapshot) float64 {
	depth := snap.Gauges[0].Value
	return depth * 2
}

// Mode switches on a quantile estimate.
func Mode(snap *obs.Snapshot) string {
	switch {
	case snap.Histograms[0].P50 > 60:
		return "slow"
	default:
		return "fast"
	}
}

// Total ranges over the counters and accumulates their values.
func Total(snap *obs.Snapshot) uint64 {
	var n uint64
	for _, c := range snap.Counters {
		n += c.Value
	}
	return n
}
