// Package linalg implements the small dense linear-algebra kernel that
// the FakeQuakes substrate needs: row-major matrices, Cholesky
// factorization of covariance matrices, and matrix-vector products.
// It deliberately covers only what the simulation uses, with bounds
// checks on the public surface.
package linalg

import (
	"errors"
	"fmt"
	"runtime"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns m[i,j]. It panics on out-of-range indices.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns m[i,j] = v. It panics on out-of-range indices.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("linalg: row %d out of %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// MulVec returns m·x. It returns an error on dimension mismatch. Each
// y[i] is a plain left-to-right accumulation over its row; above
// parallelFlopCutoff the rows are partitioned across the shared pool,
// which never changes an element's bits (parallel.go).
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("linalg: MulVec dim mismatch: %dx%d · %d", m.Rows, m.Cols, len(x))
	}
	y := make([]float64, m.Rows)
	rows := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			var s float64
			for j, v := range row {
				s += v * x[j]
			}
			y[i] = s
		}
	}
	if m.Rows*m.Cols < parallelFlopCutoff {
		rows(0, m.Rows)
	} else {
		ParallelFor(m.Rows, rowGrain, rows)
	}
	return y, nil
}

func mulDimErr(m, b *Matrix) error {
	return fmt.Errorf("linalg: Mul dim mismatch: %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
}

func cholDimErr(m *Matrix) error {
	return fmt.Errorf("linalg: Cholesky of non-square %dx%d", m.Rows, m.Cols)
}

// Mul returns m·b. It returns an error on dimension mismatch. The
// product is the cache-blocked kernel (blocked.go): every element is a
// fused-multiply-add fold over k in increasing order, so the bits do
// not depend on the architecture or on GOMAXPROCS. Above the size and
// worker cutoffs the row quads of each panel fan out on the shared
// pool (parallel.go); reference_test.go keeps the pre-blocking kernel
// as the numerical spec.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, mulDimErr(m, b)
	}
	par := runtime.GOMAXPROCS(0) > 1 &&
		m.Rows >= 2*gemmMR &&
		m.Rows*m.Cols*b.Cols >= parallelGemmMinFlops
	out := NewMatrix(m.Rows, b.Cols)
	gemmAcc(m.Rows, b.Cols, m.Cols, m.Data, m.Cols, b.Data, b.Cols, false, out.Data, out.Cols, par)
	return out, nil
}

// ErrNotPositiveDefinite reports that Cholesky failed because the input
// is not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular L with L·Lᵀ = m for a
// symmetric positive-definite m. Only the lower triangle of m is read.
// A small jitter may be added by the caller beforehand for matrices
// that are positive semi-definite up to rounding. The factorization is
// the blocked left-looking kernel (blocked.go), whose bits do not
// depend on GOMAXPROCS; from parallelCholMinN up, with more than one
// worker, its panel updates fan out on the shared pool (parallel.go).
// reference_test.go keeps the pre-blocking kernel as the numerical
// spec.
func Cholesky(m *Matrix) (*Matrix, error) {
	par := runtime.GOMAXPROCS(0) > 1 && m.Rows >= parallelCholMinN
	return blockedCholesky(m, par)
}

// AddDiag adds eps to every diagonal element in place and returns m.
func (m *Matrix) AddDiag(eps float64) *Matrix {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += eps
	}
	return m
}

// Scale multiplies every element of x by a in place and returns x.
func Scale(x []float64, a float64) []float64 {
	for i := range x {
		x[i] *= a
	}
	return x
}

// SolveCholesky solves L·Lᵀ·x = b given the lower-triangular Cholesky
// factor L, by forward then backward substitution.
func SolveCholesky(l *Matrix, b []float64) ([]float64, error) {
	n := l.Rows
	if l.Cols != n {
		return nil, fmt.Errorf("linalg: non-square factor %dx%d", l.Rows, l.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d for %dx%d factor", len(b), n, n)
	}
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Data[i*n : i*n+i]
		for k, v := range row {
			s -= v * y[k]
		}
		d := l.Data[i*n+i]
		if d == 0 {
			return nil, fmt.Errorf("linalg: singular factor at %d", i)
		}
		y[i] = s / d
	}
	// Backward: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.Data[k*n+i] * x[k]
		}
		x[i] = s / l.Data[i*n+i]
	}
	return x, nil
}

// LeastSquares solves min ‖A·x − b‖₂ via the normal equations with a
// small ridge term for stability. A must have at least as many rows as
// columns.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: underdetermined system %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: rhs length %d for %d rows", len(b), a.Rows)
	}
	at := a.T()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	ata.AddDiag(1e-9)
	atb, err := at.MulVec(b)
	if err != nil {
		return nil, err
	}
	l, err := Cholesky(ata)
	if err != nil {
		return nil, fmt.Errorf("linalg: normal equations not positive definite: %w", err)
	}
	return SolveCholesky(l, atb)
}
