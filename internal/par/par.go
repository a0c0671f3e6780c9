// Package par is the module's one fan-out: every place that spreads
// independent work across cores (experiment cells, FakeQuakes
// stations, distance rows, linalg kernel chunks) goes through Each,
// and the module has no other go statement.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each runs job(i) for every i in [0, n) on min(workers, n) workers,
// the caller one of them; workers ≤ 0 means GOMAXPROCS. Workers take
// indices in increasing order from one counter, and each gets its job
// from one call of worker, so whatever that job closes over (a scratch
// buffer) is the worker's own.
//
// Once a job fails no worker takes a new index. Every lower index was
// taken already and runs to completion, so Each returns the error of
// the lowest failing index: the error a serial loop returns. With one
// worker Each is that serial loop, on the caller.
func Each(workers, n int, worker func() func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		next   atomic.Int64
		mu     sync.Mutex
		lowest = n
		first  error
	)
	run := func() {
		job := worker()
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			if err := job(i); err != nil {
				next.Store(int64(n))
				mu.Lock()
				if i < lowest {
					lowest, first = i, err
				}
				mu.Unlock()
				return
			}
		}
	}
	var wg sync.WaitGroup
	for range min(workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	if n > 0 {
		run()
	}
	wg.Wait()
	return first
}
