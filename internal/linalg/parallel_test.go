package linalg

import (
	"math"
	"runtime"
	"testing"
)

// deterministic pseudo-random fill (splitmix64), independent of
// math/rand so the fixtures are stable.
type testRNG uint64

func (r *testRNG) next() float64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53)*2 - 1
}

func randomMatrix(rows, cols int, seed uint64) *Matrix {
	r := testRNG(seed)
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.next()
	}
	return m
}

// spdMatrix builds a covariance-like symmetric positive-definite matrix
// with exponentially decaying off-diagonal correlation.
func spdMatrix(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Data[i*n+j] = math.Exp(-math.Abs(float64(i-j)) / (float64(n)/8 + 1))
		}
	}
	m.AddDiag(1e-10)
	return m
}

func bitsEqual(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d differs: %x vs %x (%v vs %v)",
				name, i, math.Float64bits(a[i]), math.Float64bits(b[i]), a[i], b[i])
		}
	}
}

// Sizes straddle the parallel cutoffs, odd chunk boundaries, and the
// benchmark sizes' shape (capped for test speed).
var paritySizes = []int{1, 2, 3, 7, 16, 33, 64, 129, 256}

// atProcs runs f under GOMAXPROCS=1 and then GOMAXPROCS=4, so one
// kernel's inline and fanned-out paths can be compared bit for bit.
func atProcs(t *testing.T, f func() ([]float64, error)) (one, four []float64) {
	t.Helper()
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	one, err := f()
	if err != nil {
		t.Fatalf("GOMAXPROCS=1: %v", err)
	}
	runtime.GOMAXPROCS(4)
	four, err = f()
	if err != nil {
		t.Fatalf("GOMAXPROCS=4: %v", err)
	}
	return one, four
}

func TestParallelCholeskyBitIdentical(t *testing.T) {
	for _, n := range paritySizes {
		m := spdMatrix(n)
		one, four := atProcs(t, func() ([]float64, error) {
			l, err := Cholesky(m)
			if err != nil {
				return nil, err
			}
			return l.Data, nil
		})
		bitsEqual(t, "cholesky", one, four)
	}
}

func TestParallelCholeskyErrors(t *testing.T) {
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
	bad := NewMatrix(64, 64) // all-zero: not positive definite
	if _, err := Cholesky(bad); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestParallelMulBitIdentical(t *testing.T) {
	for _, n := range paritySizes {
		a := randomMatrix(n, n+3, uint64(n))
		b := randomMatrix(n+3, n+1, uint64(n)+1000)
		one, four := atProcs(t, func() ([]float64, error) {
			p, err := a.Mul(b)
			if err != nil {
				return nil, err
			}
			return p.Data, nil
		})
		bitsEqual(t, "mul", one, four)
	}
	a := NewMatrix(2, 3)
	if _, err := a.Mul(NewMatrix(4, 2)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestParallelMulVecBitIdentical(t *testing.T) {
	for _, n := range paritySizes {
		a := randomMatrix(n, 2*n+1, uint64(n))
		x := randomMatrix(1, 2*n+1, uint64(n)+5000).Data
		one, four := atProcs(t, func() ([]float64, error) { return a.MulVec(x) })
		bitsEqual(t, "mulvec", one, four)
	}
	if _, err := NewMatrix(2, 3).MulVec(make([]float64, 5)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// The kernels must give the same bits whatever GOMAXPROCS says, since
// each element's reduction is never split across workers.
func TestParallelKernelsAcrossGOMAXPROCS(t *testing.T) {
	n := 192
	m := spdMatrix(n)
	a := randomMatrix(n, n, 9)
	b := randomMatrix(n, n, 10)

	old := runtime.GOMAXPROCS(1)
	l1, err := Cholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(old)

	lN, err := Cholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	pN, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "cholesky gomaxprocs", l1.Data, lN.Data)
	bitsEqual(t, "mul gomaxprocs", p1.Data, pN.Data)
}

func TestParallelFor(t *testing.T) {
	// Covers every index exactly once, for chunked and inline paths.
	for _, n := range []int{0, 1, 5, 64, 1000} {
		seen := make([]int, n)
		ParallelFor(n, 3, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}
