package linalg

import (
	"math"
	"runtime"
	"testing"
)

// Sizes that are not multiples of any tile dimension (gemmMR=4,
// gemmNR=8, gemmKC=gemmNC=256, cholNB=32), straddling every blocking
// boundary: below one micro-tile, one off from the k/j panel edges,
// and one off from the benchmark size.
var nonTileSizes = []int{1, 7, 255, 257, 1023}

// fmaSpecMul is the summation-order specification of the blocked GEMM,
// written as the trivial triple loop: each element is the math.FMA
// fold over k in increasing order. The blocked kernel must match it
// bit for bit — blocking factors and worker counts may only change
// which element is computed when, never an element's chain.
func fmaSpecMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc float64
			for k := 0; k < a.Cols; k++ {
				acc = math.FMA(a.Data[i*a.Cols+k], b.Data[k*b.Cols+j], acc)
			}
			out.Data[i*out.Cols+j] = acc
		}
	}
	return out
}

// maxAbsDiff returns the worst elementwise difference.
func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestBlockedMulBitsEqualFMASpec pins the blocked kernel to its
// order-of-operations spec exactly. On AVX2 hosts this also proves the
// assembly micro-kernel's VFMADD rounds identically to math.FMA.
func TestBlockedMulBitsEqualFMASpec(t *testing.T) {
	for _, n := range []int{1, 3, 7, 16, 33, 100, 257} {
		a := randomMatrix(n, n+5, uint64(n))
		b := randomMatrix(n+5, n+2, uint64(n)+77)
		got, err := a.Mul(b)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "mul-vs-fma-spec", fmaSpecMul(a, b).Data, got.Data)
	}
}

// TestBlockedMulMatchesReference is the blocked-vs-reference property
// test: numerical agreement (not bitwise — the fused rounding is the
// repin) across square, rectangular, odd, non-tile-multiple shapes,
// with one worker and with four.
func TestBlockedMulMatchesReference(t *testing.T) {
	sizes := nonTileSizes
	if testing.Short() {
		sizes = []int{1, 7, 255, 257}
	}
	shapes := [][3]int{}
	for _, n := range sizes {
		shapes = append(shapes, [3]int{n, n, n})
		if n <= 257 { // rectangular variants at the sizes that stay cheap
			shapes = append(shapes, [3]int{n, (n + 3) / 2, n + 9})
		}
	}
	shapes = append(shapes, [3]int{5, 1023, 3}, [3]int{1023, 5, 7})
	for _, s := range shapes {
		mM, kK, nN := s[0], s[1], s[2]
		a := randomMatrix(mM, kK, uint64(mM*31+kK))
		b := randomMatrix(kK, nN, uint64(kK*17+nN))
		want, err := a.ReferenceMul(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			m, err := a.Mul(b)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatal(err)
			}
			// Operands in [-1,1]: the two kernels differ only in
			// rounding, bounded well below K·eps per element.
			tol := 1e-12 * float64(kK+1)
			if d := maxAbsDiff(want.Data, m.Data); d > tol {
				t.Fatalf("%dx%dx%d (procs=%d): blocked vs reference differ by %g (tol %g)",
					mM, kK, nN, procs, d, tol)
			}
		}
	}
}

// TestBlockedCholeskyMatchesReference: same property for the
// factorization, including sizes straddling the cholNB panels and the
// parallel cutoff.
func TestBlockedCholeskyMatchesReference(t *testing.T) {
	sizes := nonTileSizes
	if testing.Short() {
		sizes = []int{1, 7, 255, 257}
	}
	for _, n := range sizes {
		m := spdMatrix(n)
		want, err := ReferenceCholesky(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			l, err := Cholesky(m)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatalf("n=%d (procs=%d): %v", n, procs, err)
			}
			tol := 1e-10 * float64(n+1)
			if d := maxAbsDiff(want.Data, l.Data); d > tol {
				t.Fatalf("n=%d (procs=%d): blocked vs reference differ by %g (tol %g)",
					n, procs, d, tol)
			}
		}
	}
}

// TestBlockedCholeskyNotPositiveDefinite: the blocked kernel keeps the
// reference error contract.
func TestBlockedCholeskyNotPositiveDefinite(t *testing.T) {
	for _, n := range []int{1, 33, 100} {
		bad := NewMatrix(n, n) // all-zero
		if _, err := Cholesky(bad); err != ErrNotPositiveDefinite {
			t.Fatalf("n=%d: err = %v, want ErrNotPositiveDefinite", n, err)
		}
		// Indefinite beyond the first panel: identity with one negative
		// pivot deep in the matrix.
		m := NewMatrix(n, n).AddDiag(1)
		m.Set(n-1, n-1, -1)
		if _, err := Cholesky(m); err != ErrNotPositiveDefinite {
			t.Fatalf("n=%d indefinite: err = %v, want ErrNotPositiveDefinite", n, err)
		}
	}
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
}

// TestParallelCutoffNeverDispatches pins the size/worker cutoff: at
// every benchmark-recorded size with one worker, and at small sizes
// with many workers, the kernels must run inline — zero pool
// dispatches — so fan-out costs nothing beyond the cutoff comparison
// where it cannot pay (the pre-blocking parallel Cholesky paid
// per-column fan-out at GOMAXPROCS=1 and lost 169.6ms vs 156.0ms at
// n=1024).
func TestParallelCutoffNeverDispatches(t *testing.T) {
	recorded := []int{256, 512, 1024}
	if testing.Short() {
		recorded = []int{256, 512}
	}
	old := runtime.GOMAXPROCS(1)
	before := poolDispatches.Load()
	for _, n := range recorded {
		if _, err := Cholesky(spdMatrix(n)); err != nil {
			t.Fatal(err)
		}
		a := randomMatrix(n, n, uint64(n))
		if _, err := a.Mul(a); err != nil {
			t.Fatal(err)
		}
		if _, err := a.MulVec(a.Row(0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := poolDispatches.Load(); got != before {
		t.Fatalf("one-worker kernels dispatched %d pool tasks, want 0", got-before)
	}
	runtime.GOMAXPROCS(4)
	before = poolDispatches.Load()
	for _, n := range []int{2, 16, 33} {
		if _, err := Cholesky(spdMatrix(n)); err != nil {
			t.Fatal(err)
		}
		a := randomMatrix(n, n, uint64(n))
		if _, err := a.Mul(a); err != nil {
			t.Fatal(err)
		}
	}
	if got := poolDispatches.Load(); got != before {
		t.Fatalf("below-cutoff kernels dispatched %d pool tasks, want 0", got-before)
	}
	// Sanity: above the cutoffs with several workers, fan-out happens.
	if _, err := Cholesky(spdMatrix(300)); err != nil {
		t.Fatal(err)
	}
	if poolDispatches.Load() == before {
		t.Fatal("above-cutoff Cholesky with 4 workers never reached the pool")
	}
	runtime.GOMAXPROCS(old)
}

// TestBlockedKernelsAcrossGOMAXPROCS extends the bit-identity pin to
// the non-tile sizes (capped for test time): the blocked kernels must
// give the same bits whatever GOMAXPROCS says.
func TestBlockedKernelsAcrossGOMAXPROCS(t *testing.T) {
	for _, n := range []int{7, 255, 257} {
		m := spdMatrix(n)
		a := randomMatrix(n, n, uint64(n))
		b := randomMatrix(n, n, uint64(n)+1)

		old := runtime.GOMAXPROCS(1)
		l1, err := Cholesky(m)
		if err != nil {
			t.Fatal(err)
		}
		p1, err := a.Mul(b)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(4)
		lN, err := Cholesky(m)
		if err != nil {
			t.Fatal(err)
		}
		pN, err := a.Mul(b)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(old)
		bitsEqual(t, "cholesky gomaxprocs", l1.Data, lN.Data)
		bitsEqual(t, "mul gomaxprocs", p1.Data, pN.Data)
	}
}
