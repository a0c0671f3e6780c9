// The shared bounded worker pool behind the hot kernels (Cholesky and
// MulVec), sized by GOMAXPROCS.
//
// Bit-identity contract: every output element is computed with one
// fixed summation order — for the blocked Cholesky a
// fused-multiply-add fold over k in increasing order (see blocked.go),
// for MulVec a plain left-to-right accumulation — so the kernels return
// the same bits for the same input regardless of worker count.
// Parallelism only partitions *independent* output elements (rows, row
// quads) across workers; it never splits or reassociates a single
// element's reduction. This is what keeps FakeQuakes scenarios
// deterministic by seed under GOMAXPROCS=1 vs N.
//
// Cutoff contract: each kernel decides up front whether fan-out can
// win — enough workers *and* enough arithmetic per dispatch — and
// otherwise runs inline, dispatching nothing. poolDispatches makes that
// observable, and the cutoff tests pin it at every benchmark-recorded
// size, so fan-out can never cost more than the cutoff comparison
// itself where it cannot pay (the pre-blocking parallel Cholesky lost
// ~9% at 1024 on one core by paying per-column fan-out that could not
// pay for itself).
package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The shared pool: GOMAXPROCS goroutines consuming closures. Started
// lazily on first use; tasks that find the queue full run inline on the
// submitter, so progress never depends on a free worker (and nested use
// from already-parallel callers cannot deadlock).
var (
	poolOnce  sync.Once
	poolTasks chan func()
)

func pool() chan func() {
	poolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		poolTasks = make(chan func(), 4*n)
		for i := 0; i < n; i++ {
			go func() {
				for task := range poolTasks {
					task()
				}
			}()
		}
	})
	return poolTasks
}

// ParallelFor splits [0, n) into contiguous chunks of at least minGrain
// iterations and runs body(lo, hi) for each chunk on the shared pool,
// returning when all chunks finish. body must only write state owned by
// its own [lo, hi) range. With one worker, or when n is within a single
// grain, body runs inline on the caller.
func ParallelFor(n, minGrain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minGrain < 1 {
		minGrain = 1
	}
	workers := runtime.GOMAXPROCS(0)
	chunk := (n + workers - 1) / workers
	if chunk < minGrain {
		chunk = minGrain
	}
	if workers == 1 || chunk >= n {
		body(0, n)
		return
	}
	poolDispatches.Add(1)
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		task := func(lo, hi int) func() {
			return func() {
				defer wg.Done()
				body(lo, hi)
			}
		}(lo, hi)
		select {
		case pool() <- task:
		default:
			task() // queue full: run on the submitter
		}
	}
	wg.Wait()
}

// Work thresholds below which the kernels run inline on the caller:
// fan-out overhead beats the arithmetic for small inputs, so below
// these no task ever reaches the pool.
const (
	parallelFlopCutoff = 1 << 14 // per dispatch, roughly a few µs of math
	rowGrain           = 8       // minimum rows per worker chunk
	// parallelCholMinN gates Cholesky's fan-out: below this the whole
	// factorization is sub-millisecond and the per-panel fan-out
	// cannot recoup itself.
	parallelCholMinN = 256
)

// poolDispatches counts ParallelFor fan-outs that actually reached the
// pool (the inline small-n/one-worker path does not count). Tests use
// it to pin the cutoff contract: kernel calls that cannot win must
// leave it untouched.
var poolDispatches atomic.Uint64
