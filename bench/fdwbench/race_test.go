//go:build race

package main

// raceEnabled skips the workloads whose 743 MB of Green's functions the
// race detector's shadow memory would multiply.
const raceEnabled = true
