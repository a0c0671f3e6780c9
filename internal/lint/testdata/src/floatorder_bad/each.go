package floatorder_bad

import (
	"sync"

	"fdw/internal/par"
)

// EachSum lets par.Each's workers decide the order of additions: the
// job runs concurrently, so the lock orders nothing.
func EachSum(xs []float64) float64 {
	var sum float64
	var mu sync.Mutex
	par.Each(0, len(xs), func() func(int) error {
		return func(i int) error {
			mu.Lock()
			sum += xs[i]
			mu.Unlock()
			return nil
		}
	})
	return sum
}

// EachClosureSum hides the same race behind a closure the worker
// factory declares and the job calls: the captured sum still takes
// its additions in completion order.
func EachClosureSum(xs []float64) float64 {
	var sum float64
	var mu sync.Mutex
	par.Each(0, len(xs), func() func(int) error {
		add := func(x float64) {
			mu.Lock()
			sum += x
			mu.Unlock()
		}
		return func(i int) error {
			add(xs[i])
			return nil
		}
	})
	return sum
}
