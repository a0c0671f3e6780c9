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

// MulVec returns m·x. It returns an error on dimension mismatch. Each
// y[i] is a plain left-to-right accumulation over its row; above
// parallelFlopCutoff the rows are partitioned across GOMAXPROCS workers,
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

func cholDimErr(m *Matrix) error {
	return fmt.Errorf("linalg: Cholesky of non-square %dx%d", m.Rows, m.Cols)
}

// Mul returns m·b. It returns an error on dimension mismatch. Every
// element is the fused-multiply-add fold over k in increasing order:
// Mul transposes b and runs Cholesky's panel-update kernel, c += a·bᵀ
// (blocked.go), on one goroutine. reference_test.go keeps the
// pre-blocking product as the numerical spec.
//
//lint:allow deadexport fdwbench's TestCPUSharesLinalgLoop profiles a loop of Mul calls
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: Mul dim mismatch: %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	bt := NewMatrix(b.Cols, b.Rows)
	for k := 0; k < b.Rows; k++ {
		for j := 0; j < b.Cols; j++ {
			bt.Data[j*bt.Cols+k] = b.Data[k*b.Cols+j]
		}
	}
	out := NewMatrix(m.Rows, b.Cols)
	gemmAcc(m.Rows, b.Cols, m.Cols, m.Data, m.Cols, bt.Data, bt.Cols, out.Data, out.Cols, false)
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
// worker, its panel updates fan out through ParallelFor (parallel.go).
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
