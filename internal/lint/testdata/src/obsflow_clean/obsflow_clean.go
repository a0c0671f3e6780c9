// Package obsflow_clean consumes snapshot readings only in the legal,
// report-only ways: print arguments, returns, exporters, whole
// snapshots, and deliberate discards.
package obsflow_clean

import (
	"fmt"
	"io"

	"fdw/internal/obs"
)

// Report prints a reading without storing or branching on it.
func Report(w io.Writer, snap *obs.Snapshot) {
	fmt.Fprintf(w, "submitted %d\n", snap.Counters[0].Value)
}

// Submitted surfaces a reading to the caller; what the caller does
// with it is checked at the caller.
func Submitted(snap *obs.Snapshot) uint64 {
	return snap.Counters[0].Value
}

// Export serializes the whole registry; exporter APIs are not reads.
func Export(w io.Writer, r *obs.Registry) error {
	return r.WriteJSON(w)
}

// Rollup folds whole snapshots into a registry, which is not a
// reading.
func Rollup(r *obs.Registry, cell *obs.Snapshot) (*obs.Snapshot, error) {
	err := r.Absorb(cell)
	return r.Snapshot(), err
}

// Touch discards a reading explicitly.
func Touch(snap *obs.Snapshot) {
	_ = snap.Gauges[0].Value
}
