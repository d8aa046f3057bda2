package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyKnown(t *testing.T) {
	a := []float64{
		4, 12, -16,
		12, 37, -43,
		-16, -43, 98,
	}
	l := make([]float64, 9)
	if err := cholesky(a, l, 3); err != nil {
		t.Fatal(err)
	}
	want := []float64{
		2, 0, 0,
		6, 1, 0,
		-8, 5, 3,
	}
	for i := range want {
		if !almostEq(l[i], want[i], 1e-10) {
			t.Fatalf("L = %v, want %v", l, want)
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	if err := cholesky([]float64{0, 0, 0, 1}, make([]float64, 4), 2); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// Property: for random symmetric positive-definite systems, the Cholesky
// factor and the two substitution passes give x with A·x ≈ b. The
// right-hand side aliases x, as in Solver.EffectiveResistance.
func TestQuickSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		l := make([]float64, n*n)
		if err := cholesky(a, l, n); err != nil {
			return false
		}
		x := append([]float64(nil), b...)
		if err := solveCholesky(l, x, make([]float64, n), x, n); err != nil {
			return false
		}
		for i := range b {
			r := 0.0
			for j := range x {
				r += a[i*n+j] * x[j]
			}
			if math.Abs(r-b[i]) > 1e-6*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveCholeskyMatchesSolve: the Cholesky factor and the two
// substitution passes recover a known solution, x from b = A·x, for
// random symmetric positive-definite A.
func TestSolveCholeskyMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := range b {
			for j := range want {
				b[i] += a[i*n+j] * want[j]
			}
		}
		l := make([]float64, n*n)
		if err := cholesky(a, l, n); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x := make([]float64, n)
		if err := solveCholesky(l, b, make([]float64, n), x, n); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !almostEq(x[i], want[i], 1e-7) {
				t.Fatalf("trial %d: cholesky solve = %v, want %v", trial, x, want)
			}
		}
	}
}

// randomSPD returns the n×n row-major MᵀM + n·I for a random normal M,
// which is symmetric positive definite.
func randomSPD(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	spd := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += m[k*n+i] * m[k*n+j]
			}
			spd[i*n+j] = s
		}
		spd[i*n+i] += float64(n)
	}
	return spd
}
