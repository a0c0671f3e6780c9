package linalg

import (
	"fmt"
	"math"
	"testing"
)

// The pre-blocking kernels, retained verbatim as the executable
// reference specification (the negotiate_ref_test.go pattern from the
// pool rework): simple triple loops whose correctness is obvious by
// inspection. The blocked kernels in blocked.go must agree with these
// numerically — property-tested across square, rectangular, odd and
// non-tile-multiple shapes in blocked_test.go — but not bitwise: the
// blocked kernels' fused-multiply-add accumulation rounds once per
// term instead of twice, which is the one-time golden repin recorded
// in BENCH_kernels.json and DESIGN.md §15.

// ReferenceMul is the naive i-k-j GEMM the blocked Mul replaced. Each
// output row is accumulated as out[i][j] += a[i][k]·b[k][j] with k
// outer, j inner — separate multiply and add roundings per term.
func (m *Matrix) ReferenceMul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, mulDimErr(m, b)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		// No zero-skip here: the simulation's operands are dense
		// (covariances, distance products), where the branch costs more
		// than the multiply it saves and defeats vectorization.
		for k, a := range arow {
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out, nil
}

// ReferenceCholesky is the unblocked left-looking factorization the
// blocked Cholesky replaced: per column, a full prefix dot product per
// row with plain multiply-add rounding.
func ReferenceCholesky(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, cholDimErr(m)
	}
	n := m.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		var diag float64
		ljRow := l.Data[j*n : j*n+j]
		for _, v := range ljRow {
			diag += v * v
		}
		d := m.Data[j*n+j] - diag
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Data[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			var s float64
			liRow := l.Data[i*n : i*n+j]
			for k, v := range liRow {
				s += v * ljRow[k]
			}
			l.Data[i*n+j] = (m.Data[i*n+j] - s) / ljj
		}
	}
	return l, nil
}

// BenchmarkReference times the retained specs at the root package's
// kernel sizes, so BenchmarkCholesky and BenchmarkMatMul there show
// what the blocked kernels gained.
func BenchmarkReference(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		m := spdMatrix(n)
		x := randomMatrix(n, n, 1)
		y := randomMatrix(n, n, 2)
		b.Run(fmt.Sprintf("Cholesky/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ReferenceCholesky(m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("MatMul/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := x.ReferenceMul(y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
