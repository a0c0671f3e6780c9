package linalg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"fdw/internal/sim"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %dx%d data %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("new matrix not zeroed")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At = %v, want 7.5", m.At(1, 2))
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range At")
		}
	}()
	NewMatrix(2, 2).At(2, 0)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("FromRows layout wrong")
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Fatal("empty FromRows mishandled")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatal("transpose mismatch")
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	y, err := m.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(NewMatrix(3, 2)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestCholeskyKnown(t *testing.T) {
	// Classic SPD example.
	m, _ := FromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	l, err := Cholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2, 0, 0}, {6, 1, 0}, {-8, 5, 3}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(l.At(i, j)-want[i][j]) > 1e-10 {
				t.Fatalf("L[%d][%d] = %v, want %v", i, j, l.At(i, j), want[i][j])
			}
		}
	}
}

func TestCholeskyRejectsNonPD(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(m); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestPropertyCholeskyReconstructs(t *testing.T) {
	// Property: for random A, M = A·Aᵀ + eps·I is SPD and chol(M)·chol(M)ᵀ == M.
	rng := sim.NewRNG(99)
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		r := rng.Split(seed)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = r.Normal(0, 1)
		}
		m, err := a.Mul(a.T())
		if err != nil {
			return false
		}
		m.AddDiag(0.5)
		l, err := Cholesky(m)
		if err != nil {
			return false
		}
		back, err := l.Mul(l.T())
		if err != nil {
			return false
		}
		for i := range m.Data {
			if math.Abs(back.Data[i]-m.Data[i]) > 1e-8*(1+math.Abs(m.Data[i])) {
				return false
			}
		}
		// L must be lower-triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAddDiag(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddDiag(3)
	if m.At(0, 0) != 3 || m.At(1, 1) != 3 || m.At(0, 1) != 0 {
		t.Fatal("AddDiag wrong")
	}
}

func TestSymmetricMaxAbsDiff(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {2.5, 1}})
	if d := m.SymmetricMaxAbsDiff(); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("asym = %v, want 0.5", d)
	}
	if !math.IsInf(NewMatrix(2, 3).SymmetricMaxAbsDiff(), 1) {
		t.Fatal("non-square should be Inf")
	}
}

func TestDotNormScaleAXPY(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("Norm2 wrong")
	}
	x := Scale([]float64{1, 2}, 3)
	if x[0] != 3 || x[1] != 6 {
		t.Fatal("Scale wrong")
	}
	y := []float64{1, 1}
	AXPY(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Fatal("AXPY wrong")
	}
}

func TestRowIsView(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(1)[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row is not a view")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMatrix(1, 1)
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone is shallow")
	}
}

func TestSolveCholesky(t *testing.T) {
	m, _ := FromRows([][]float64{{4, 12, -16}, {12, 37, -43}, {-16, -43, 98}})
	l, err := Cholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	b, err := m.MulVec(want)
	if err != nil {
		t.Fatal(err)
	}
	x, err := SolveCholesky(l, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-8 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
	if _, err := SolveCholesky(l, []float64{1}); err == nil {
		t.Fatal("short rhs accepted")
	}
}

func TestLeastSquaresRecoversLine(t *testing.T) {
	// y = 3 + 2t, with exact data.
	rows := [][]float64{}
	var b []float64
	for tt := 0.0; tt < 10; tt++ {
		rows = append(rows, []float64{1, tt})
		b = append(b, 3+2*tt)
	}
	a, _ := FromRows(rows)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-6 || math.Abs(x[1]-2) > 1e-6 {
		t.Fatalf("coefficients %v, want [3 2]", x)
	}
}

func TestLeastSquaresValidation(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := LeastSquares(a, []float64{1, 2}); err == nil {
		t.Fatal("underdetermined accepted")
	}
	a2 := NewMatrix(3, 2)
	if _, err := LeastSquares(a2, []float64{1}); err == nil {
		t.Fatal("bad rhs accepted")
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SymmetricMaxAbsDiff returns max |m[i,j]-m[j,i]| for a square matrix,
// used to validate covariance construction.
func (m *Matrix) SymmetricMaxAbsDiff() float64 {
	if m.Rows != m.Cols {
		return math.Inf(1)
	}
	var worst float64
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			d := math.Abs(m.Data[i*m.Cols+j] - m.Data[j*m.Cols+i])
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// AXPY computes y += a*x in place. It panics on length mismatch.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += a * v
	}
}
