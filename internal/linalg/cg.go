package linalg

import (
	"fmt"
	"math"
	"slices"
)

// SparseSymmetric is a symmetric matrix in compressed adjacency form,
// specialized for graph Laplacians: per-row index/value lists plus the
// diagonal. It exists so effective-resistance computation scales past the
// dense O(n³) solves — on large networks the conjugate-gradient path
// only touches the O(E) nonzeros.
type SparseSymmetric struct {
	n    int
	diag []float64
	idx  [][]int32
	val  [][]float64
}

// NewSparseLaplacian builds the Laplacian of the weighted graph in sparse
// form. Parallel edges accumulate; self loops are ignored.
func NewSparseLaplacian(n int, edges []WeightedEdge) *SparseSymmetric {
	s := &SparseSymmetric{
		n:    n,
		diag: make([]float64, n),
		idx:  make([][]int32, n),
		val:  make([][]float64, n),
	}
	// Accumulate off-diagonals in maps first (edges may repeat).
	acc := make([]map[int32]float64, n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		s.diag[e.U] += e.Weight
		s.diag[e.V] += e.Weight
		for _, p := range [2][2]int{{e.U, e.V}, {e.V, e.U}} {
			if acc[p[0]] == nil {
				acc[p[0]] = make(map[int32]float64)
			}
			acc[p[0]][int32(p[1])] -= e.Weight
		}
	}
	// Store each row in column order: MulVec sums in storage order, so a
	// map-ordered row would change the last bits of every solve from one
	// call to the next.
	for i := 0; i < n; i++ {
		for j := range acc[i] {
			s.idx[i] = append(s.idx[i], j)
		}
		slices.Sort(s.idx[i])
		for _, j := range s.idx[i] {
			s.val[i] = append(s.val[i], acc[i][j])
		}
	}
	return s
}

// N returns the dimension.
func (s *SparseSymmetric) N() int { return s.n }

// MulVec computes y = S·x into the provided slice (allocated when nil).
func (s *SparseSymmetric) MulVec(x, y []float64) []float64 {
	if y == nil {
		y = make([]float64, s.n)
	}
	for i := 0; i < s.n; i++ {
		acc := s.diag[i] * x[i]
		idx, val := s.idx[i], s.val[i]
		for k, j := range idx {
			acc += val[k] * x[j]
		}
		y[i] = acc
	}
	return y
}

// CGOptions tunes the conjugate-gradient solve.
type CGOptions struct {
	// Tol is the relative residual target (default 1e-10).
	Tol float64
	// MaxIter bounds iterations (default 4·n).
	MaxIter int
}

// SolveCG solves S·x = b for a symmetric positive (semi-)definite sparse
// matrix with Jacobi-preconditioned conjugate gradients. For a grounded
// Laplacian (one node's row/column removed — here encoded by passing
// mask[v]=false for the grounded node) the system is SPD and CG converges.
//
// mask selects the active subspace: entries with mask[i]==false are pinned
// to zero (their b entries are ignored). This avoids materializing the
// reduced matrix.
func (s *SparseSymmetric) SolveCG(b []float64, mask []bool, opts CGOptions) ([]float64, error) {
	if len(b) != s.n || len(mask) != s.n {
		return nil, fmt.Errorf("linalg: SolveCG dimension mismatch: n=%d b=%d mask=%d", s.n, len(b), len(mask))
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-10
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 4 * s.n
	}
	// Jacobi preconditioner over the active subspace.
	minv := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		if mask[i] && s.diag[i] > 0 {
			minv[i] = 1 / s.diag[i]
		}
	}
	project := func(v []float64) {
		for i := range v {
			if !mask[i] {
				v[i] = 0
			}
		}
	}
	x := make([]float64, s.n)
	r := make([]float64, s.n)
	copy(r, b)
	project(r)
	z := make([]float64, s.n)
	for i := range z {
		z[i] = minv[i] * r[i]
	}
	p := make([]float64, s.n)
	copy(p, z)
	ap := make([]float64, s.n)

	dot := func(a, b []float64) float64 {
		t := 0.0
		for i := range a {
			t += a[i] * b[i]
		}
		return t
	}
	rz := dot(r, z)
	bnorm := math.Sqrt(dot(r, r))
	if bnorm == 0 {
		return x, nil
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		s.MulVec(p, ap)
		project(ap)
		pap := dot(p, ap)
		if pap <= 0 {
			return nil, fmt.Errorf("linalg: CG broke down (pᵀAp = %v) — matrix not SPD on the active subspace", pap)
		}
		alpha := rz / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		if math.Sqrt(dot(r, r)) <= opts.Tol*bnorm {
			return x, nil
		}
		for i := range z {
			z[i] = minv[i] * r[i]
		}
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return nil, fmt.Errorf("linalg: CG did not converge in %d iterations", opts.MaxIter)
}

// EffectiveResistanceCG computes the effective resistance between s and t
// like EffectiveResistance, but with the sparse CG solver — the path used
// for large networks where dense Cholesky would be cubic.
func EffectiveResistanceCG(n int, edges []WeightedEdge, s, t int) (float64, error) {
	if s < 0 || s >= n || t < 0 || t >= n {
		return 0, fmt.Errorf("linalg: terminal out of range: s=%d t=%d n=%d", s, t, n)
	}
	if s == t {
		return 0, nil
	}
	comp := componentOf(n, edges, s)
	if !comp[t] {
		return 0, ErrDisconnected
	}
	lap := NewSparseLaplacian(n, edges)
	mask := make([]bool, n)
	for i := 0; i < n; i++ {
		mask[i] = comp[i] && i != t // ground t, drop foreign components
	}
	b := make([]float64, n)
	b[s] = 1
	x, err := lap.SolveCG(b, mask, CGOptions{})
	if err != nil {
		return 0, err
	}
	return x[s], nil
}
