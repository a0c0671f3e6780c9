// Package stats provides the descriptive statistics and the exact
// aggregate formulas used in the paper's experimental methodology
// (Adair et al., SC-W 2023, §4). Formulas (2) and (4), mean total
// throughput, are the Mean of per-run core.Workflow.ThroughputJPM values.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// SD returns the population standard deviation of xs
// (the paper reports SDs over its three repetitions).
func SD(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks. It copies xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary bundles the descriptive statistics the paper reports for each
// dataset: average, SD, min, max.
type Summary struct {
	N    int
	Mean float64
	SD   float64
	Min  float64
	Max  float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		SD:   SD(xs),
		Min:  Min(xs),
		Max:  Max(xs),
	}
}

// AvgTotalRuntime implements formula (1): the mean of the repetition
// runtimes (r1+r2+r3)/3. It is Mean with the paper's name, kept so the
// experiment code reads like the methodology section.
func AvgTotalRuntime(runtimes []float64) float64 { return Mean(runtimes) }

// AvgRuntimeAcrossDAGMans implements formula (3): sum of per-DAGMan
// runtimes divided by the number of DAGMans N (across all repetitions).
func AvgRuntimeAcrossDAGMans(runtimes []float64) float64 { return Mean(runtimes) }

// InstantThroughput implements formula (5): completed jobs divided by
// elapsed runtime in minutes. Zero elapsed time yields 0.
func InstantThroughput(completedJobs int, elapsedMinutes float64) float64 {
	if elapsedMinutes <= 0 {
		return 0
	}
	return float64(completedJobs) / elapsedMinutes
}

// AvgInstantThroughput implements formula (6): the mean of the
// per-second instant throughput series.
func AvgInstantThroughput(perSecond []float64) float64 { return Mean(perSecond) }

// BurstCost implements formula (7): simulated VDC minutes used times the
// cost per minute, in USD.
func BurstCost(vdcMinutes, costPerMinute float64) float64 {
	return vdcMinutes * costPerMinute
}

// PctChange returns the percentage change from old to new, e.g. the
// paper's "230.9% increase in runtime". Zero old value yields 0.
func PctChange(oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	return (newV - oldV) / oldV * 100
}

// PctDecrease returns the percentage decrease from old to new (positive
// when new < old), e.g. the paper's "56.8% decrease in runtime".
func PctDecrease(oldV, newV float64) float64 { return -PctChange(oldV, newV) }
