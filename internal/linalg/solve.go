package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when a system is not positive definite to
// working precision, so its Cholesky factorization fails.
var ErrSingular = errors.New("linalg: singular matrix")

// cholesky writes the Cholesky factor L, with A = L·Lᵀ, of the symmetric
// positive-definite n×n row-major a into the lower triangle of l, leaving
// l's upper triangle as it was. It returns ErrSingular when a is not
// positive definite to working precision.
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

// solveCholesky solves L·Lᵀ·x = b for the lower triangle L of the n×n
// row-major l (forward then backward substitution), through y. b may
// alias x: the forward pass reads all of b before the backward pass
// writes x.
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
