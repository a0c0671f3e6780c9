package floatorder_clean

import "fdw/internal/par"

// EachSlots gives every par.Each job its own slot, as the station
// fan-outs do, and reduces the slots in index order afterwards.
func EachSlots(rows [][]float64) float64 {
	sums := make([]float64, len(rows))
	par.Each(0, len(rows), func() func(int) error {
		return func(i int) error {
			for _, x := range rows[i] {
				sums[i] += x
			}
			return nil
		}
	})
	var total float64
	for _, s := range sums {
		total += s
	}
	return total
}

// EachLocalClosure adds through a closure to an accumulator the job
// itself declares, so every sum is one job's fixed-order reduction.
func EachLocalClosure(rows [][]float64) []float64 {
	sums := make([]float64, len(rows))
	par.Each(0, len(rows), func() func(int) error {
		return func(i int) error {
			var s float64
			add := func(x float64) { s += x }
			for _, x := range rows[i] {
				add(x)
			}
			sums[i] = s
			return nil
		}
	})
	return sums
}
