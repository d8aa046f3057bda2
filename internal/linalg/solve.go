package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a solve encounters a (numerically) singular
// system.
var ErrSingular = errors.New("linalg: singular matrix")

// Solve solves A·x = b by Gaussian elimination with partial pivoting and
// returns x. A and b are not modified. It returns ErrSingular when a pivot
// smaller than the numerical tolerance is encountered.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Solve requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: Solve dimension mismatch: %dx%d vs vec(%d)", a.Rows, a.Cols, len(b))
	}
	n := a.Rows
	// Work on copies; callers keep their inputs.
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	tol := pivotTolerance(m)
	for col := 0; col < n; col++ {
		// Partial pivoting: pick the row with the largest magnitude in col.
		pivot := col
		maxAbs := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(m.At(r, col)); a > maxAbs {
				maxAbs, pivot = a, r
			}
		}
		if maxAbs < tol {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(m, pivot, col)
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1.0 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			m.Set(r, col, 0)
			for c := col + 1; c < n; c++ {
				m.Add(r, c, -f*m.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// pivotTolerance computes a scale-aware singularity threshold.
func pivotTolerance(m *Matrix) float64 {
	scale := m.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	return scale * float64(m.Rows) * 1e-14
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite matrix A. It returns ErrSingular when A is
// not positive definite to working precision.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	l := NewMatrix(a.Rows, a.Rows)
	if err := cholesky(a.Data, l.Data, a.Rows); err != nil {
		return nil, err
	}
	return l, nil
}

// cholesky writes the Cholesky factor of the n×n row-major a into the
// lower triangle of l, leaving l's upper triangle as it was.
func cholesky(a, l []float64, n int) error {
	for i := 0; i < n; i++ {
		li := l[i*n : i*n+i+1]
		for j := 0; j <= i; j++ {
			lj := l[j*n : j*n+j+1]
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			if i == j {
				if s <= 0 {
					return ErrSingular
				}
				li[i] = math.Sqrt(s)
			} else {
				li[j] = s / lj[j]
			}
		}
	}
	return nil
}

// SolveCholesky solves A·x = b given the Cholesky factor L of A
// (forward then backward substitution).
func SolveCholesky(l *Matrix, b []float64) ([]float64, error) {
	n := l.Rows
	if l.Cols != n {
		return nil, fmt.Errorf("linalg: SolveCholesky requires a square factor, got %dx%d", l.Rows, l.Cols)
	}
	if n != len(b) {
		return nil, fmt.Errorf("linalg: SolveCholesky dimension mismatch: %d vs %d", n, len(b))
	}
	x := make([]float64, n)
	if err := solveCholesky(l.Data, b, make([]float64, n), x, n); err != nil {
		return nil, err
	}
	return x, nil
}

// solveCholesky solves L·Lᵀ·x = b for the lower triangle L of the n×n
// row-major l, through y. b may alias x: the forward pass reads all of b
// before the backward pass writes x.
func solveCholesky(l, b, y, x []float64, n int) error {
	// Forward: L·y = b
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l[i*n+j] * y[j]
		}
		d := l[i*n+i]
		if d == 0 {
			return ErrSingular
		}
		y[i] = s / d
	}
	// Backward: Lᵀ·x = y
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l[j*n+i] * x[j]
		}
		x[i] = s / l[i*n+i]
	}
	return nil
}
