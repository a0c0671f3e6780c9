// Fan-out for the hot kernels (Cholesky and MulVec), through par.Each
// on GOMAXPROCS workers.
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
	"sync/atomic"

	"fdw/internal/par"
)

// ParallelFor splits [0, n) into at most GOMAXPROCS contiguous chunks
// of at least minGrain iterations and runs body(lo, hi) for each chunk
// through par.Each, returning when all chunks finish. body must only
// write state owned by its own [lo, hi) range. With one worker, or when
// n is within a single grain, body runs inline on the caller.
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
	par.Each(workers, (n+chunk-1)/chunk, func() func(int) error {
		return func(c int) error {
			body(c*chunk, min(c*chunk+chunk, n))
			return nil
		}
	})
}

// Work thresholds below which the kernels run inline on the caller:
// fan-out overhead beats the arithmetic for small inputs, so below
// these nothing is dispatched.
const (
	parallelFlopCutoff = 1 << 14 // per dispatch, roughly a few µs of math
	rowGrain           = 8       // minimum rows per worker chunk
	// parallelCholMinN gates Cholesky's fan-out: below this the whole
	// factorization is sub-millisecond and the per-panel fan-out
	// cannot recoup itself.
	parallelCholMinN = 256
)

// poolDispatches counts ParallelFor fan-outs that actually dispatched
// chunks through par.Each (the inline small-n/one-worker path does not
// count). Tests use it to pin the cutoff contract: kernel calls that
// cannot win must leave it untouched.
var poolDispatches atomic.Uint64
