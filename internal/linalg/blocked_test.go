package linalg

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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

// fmaSpecGemm is gemmAcc's specification as the trivial loop: each
// c[i][j] is extended by the math.FMA fold over k of a[i][k]·b[j][k]
// in increasing k.
func fmaSpecGemm(mM, nN, kK int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < mM; i++ {
		for j := 0; j < nN; j++ {
			acc := c[i*ldc+j]
			for k := 0; k < kK; k++ {
				acc = math.FMA(a[i*lda+k], b[j*ldb+k], acc)
			}
			c[i*ldc+j] = acc
		}
	}
}

// TestGemmAccBitsEqualFMASpec pins the a·bᵀ kernel behind Cholesky's
// panel update to its spec bit for bit: strided operands, a non-zero
// starting accumulator whose padding columns must stay untouched, and
// shapes on both sides of every tile and panel edge, run serially and
// fanned out over four workers.
func TestGemmAccBitsEqualFMASpec(t *testing.T) {
	for _, s := range [][3]int{{1, 1, 1}, {4, 8, 1}, {5, 9, 3}, {33, 17, 40}, {7, 255, 257}, {64, 300, 260}, {257, 9, 513}} {
		mM, nN, kK := s[0], s[1], s[2]
		lda, ldb, ldc := kK+3, kK+1, nN+2
		a := randomMatrix(mM, lda, uint64(mM)).Data
		b := randomMatrix(nN, ldb, uint64(nN)+11).Data
		c0 := randomMatrix(mM, ldc, uint64(kK)+29).Data
		want := append([]float64(nil), c0...)
		fmaSpecGemm(mM, nN, kK, a, lda, b, ldb, want, ldc)
		for _, par := range []bool{false, true} {
			got := append([]float64(nil), c0...)
			old := runtime.GOMAXPROCS(4)
			gemmAcc(mM, nN, kK, a, lda, b, ldb, got, ldc, par)
			runtime.GOMAXPROCS(old)
			bitsEqual(t, fmt.Sprintf("gemmAcc %dx%dx%d par=%v", mM, nN, kK, par), want, got)
		}
	}
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

// mallocs returns the fewest heap allocations f makes over three runs;
// the minimum discounts an allocation by another goroutine.
// testing.AllocsPerRun cannot serve: it pins GOMAXPROCS to 1.
func mallocs(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestParallelCutoffNeverDispatches pins the size/worker cutoff: at
// every benchmark-recorded size with one worker, and at small sizes
// with many workers, the kernels must run inline, so fan-out costs
// nothing beyond the cutoff comparison where it cannot pay (the
// pre-blocking parallel Cholesky paid per-column fan-out at
// GOMAXPROCS=1 and lost 169.6ms vs 156.0ms at n=1024). A fan-out
// allocates its par.Each closures and goroutines, so a kernel that
// runs inline allocates exactly what it does with fan-out off.
func TestParallelCutoffNeverDispatches(t *testing.T) {
	recorded := []int{256, 512, 1024}
	if testing.Short() {
		recorded = []int{256, 512}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range recorded {
		m := spdMatrix(n)
		off := mallocs(func() { blockedCholesky(m, false) })
		if on := mallocs(func() { blockedCholesky(m, true) }); on != off {
			t.Fatalf("n=%d: one-worker Cholesky with fan-out on made %d allocations, %d with it off", n, on, off)
		}
	}
	// Below the size cutoffs, up to one short of each, four workers
	// change nothing.
	belowCutoff := func() []uint64 {
		var got []uint64
		for _, n := range []int{2, 16, 33, parallelCholMinN - 1} {
			m := spdMatrix(n)
			got = append(got, mallocs(func() { Cholesky(m) }))
		}
		for _, n := range []int{2, 16, 33, 127} { // 127² < parallelFlopCutoff
			a := randomMatrix(n, n, uint64(n))
			got = append(got, mallocs(func() { a.MulVec(a.Row(0)) }))
		}
		return got
	}
	one := belowCutoff()
	runtime.GOMAXPROCS(4)
	if four := belowCutoff(); !slices.Equal(four, one) {
		t.Fatalf("below-cutoff Cholesky and MulVec made %v allocations at 4 workers, %v at one", four, one)
	}
	// Sanity: above the cutoffs with several workers, fan-out happens
	// and the count shows it.
	m := spdMatrix(300)
	four := mallocs(func() { Cholesky(m) })
	runtime.GOMAXPROCS(1)
	if serial := mallocs(func() { Cholesky(m) }); four <= serial {
		t.Fatalf("above-cutoff Cholesky made %d allocations at 4 workers, %d at one: no fan-out seen", four, serial)
	}
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
