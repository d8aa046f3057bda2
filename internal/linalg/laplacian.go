// Package linalg computes effective resistances on small resistor
// networks, the one linear-algebra result the distance model needs: it
// builds the graph Laplacian of the edges with one terminal grounded,
// and solves that reduced system by Cholesky factorization.
//
// The package is intentionally minimal and dependency-free (stdlib only).
// It works on flat row-major float64 slices; sizes in this project are
// tiny (tens of nodes), so asymptotics beyond O(n³) solves are irrelevant
// and clarity wins.
package linalg

import (
	"errors"
	"fmt"
)

// WeightedEdge is an undirected edge with a conductance (1/resistance)
// weight. Nodes are indices in [0, n).
type WeightedEdge struct {
	U, V   int
	Weight float64
}

// ErrDisconnected is returned by EffectiveResistance when the two terminal
// nodes are not connected in the given edge set.
var ErrDisconnected = errors.New("linalg: terminals are not connected")

// EffectiveResistance computes the electrical effective resistance between
// nodes s and t in the resistor network described by edges (weights are
// conductances; a unit resistor has weight 1). n is the number of nodes.
//
// Method: inject 1 A at s, extract 1 A at t, ground node t (delete its row
// and column from the Laplacian), solve the reduced system for the node
// potentials, and return V(s) − V(t) = V(s).
//
// The reduced ("grounded") Laplacian of a connected component containing t
// is symmetric positive definite for positive conductances, so Cholesky
// is used; if the component containing s does not contain t the system is
// singular and ErrDisconnected is returned. A grounded Laplacian that is
// not positive definite (a non-positive conductance can make it so)
// returns ErrSingular. An edge endpoint outside [0, n) is an error.
func EffectiveResistance(n int, edges []WeightedEdge, s, t int) (float64, error) {
	var sv Solver
	return sv.EffectiveResistance(n, edges, s, t)
}

// Solver computes effective resistances exactly as EffectiveResistance
// does, in buffers it keeps from one call to the next: a caller solving
// many small networks in turn allocates only while the buffers grow. The
// zero Solver is ready to use. A Solver is not safe for concurrent use.
type Solver struct {
	parent []int     // union-find forest over the n nodes
	row    []int     // node → grounded row, −1 for t and other components
	red    []float64 // m×m grounded Laplacian
	chol   []float64 // its Cholesky factor (lower triangle)
	y, x   []float64 // forward and backward substitution vectors
}

// EffectiveResistance is the package-level EffectiveResistance on the
// solver's buffers.
func (sv *Solver) EffectiveResistance(n int, edges []WeightedEdge, s, t int) (float64, error) {
	if s < 0 || s >= n || t < 0 || t >= n {
		return 0, fmt.Errorf("linalg: terminal out of range: s=%d t=%d n=%d", s, t, n)
	}
	if s == t {
		return 0, nil
	}
	m, err := sv.ground(n, edges, s, t)
	if err != nil {
		return 0, err
	}
	ps := sv.row[s]
	sv.x = resize(sv.x, m)
	clear(sv.x)
	sv.x[ps] = 1 // inject 1 A at s (the matching −1 sits at grounded t)

	sv.chol = resize(sv.chol, m*m)
	if err := cholesky(sv.red, sv.chol, m); err != nil {
		return 0, err
	}
	sv.y = resize(sv.y, m)
	if err := solveCholesky(sv.chol, sv.x, sv.y, sv.x, m); err != nil {
		return 0, err
	}
	return sv.x[ps], nil
}

// ground builds the grounded system of the s–t resistance in sv.red and
// returns its order m: the graph Laplacian L = D − A of the undirected
// weighted edges, restricted to the connected component of s and t with
// t's row and column deleted. Nodes in other components are left out:
// they make the grounded Laplacian singular even though the resistance
// between s and t is well defined. sv.row maps each node to its row,
// numbered in ascending node order, and holds −1 for t and the nodes
// left out.
//
// Each edge's conductance is added straight into the m×m matrix, in edge
// order, so every entry receives the same additions in the same order
// as in the full n×n Laplacian. Parallel edges accumulate (their
// conductances add, exactly like parallel resistors); self loops are
// ignored, since they do not affect effective resistance. Each endpoint
// is checked before it is used, so an endpoint outside [0, n) is an
// error rather than a write to another node's cell.
func (sv *Solver) ground(n int, edges []WeightedEdge, s, t int) (int, error) {
	sv.parent = resize(sv.parent, n)
	for i := range sv.parent {
		sv.parent[i] = i
	}
	for k, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return 0, fmt.Errorf("linalg: edge %d (%d-%d) has an endpoint outside [0,%d)", k, e.U, e.V, n)
		}
		sv.parent[sv.find(e.U)] = sv.find(e.V)
	}
	root := sv.find(s)
	if sv.find(t) != root {
		return 0, ErrDisconnected
	}
	sv.row = resize(sv.row, n)
	m := 0
	for i := range sv.row {
		sv.row[i] = -1
		if i != t && sv.find(i) == root {
			sv.row[i] = m
			m++
		}
	}
	sv.red = resize(sv.red, m*m)
	clear(sv.red)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		a, b := sv.row[e.U], sv.row[e.V]
		if a >= 0 {
			sv.red[a*m+a] += e.Weight
		}
		if b >= 0 {
			sv.red[b*m+b] += e.Weight
		}
		if a >= 0 && b >= 0 {
			sv.red[a*m+b] -= e.Weight
			sv.red[b*m+a] -= e.Weight
		}
	}
	return m, nil
}

// find returns the root of v's tree, halving the path on the way.
func (sv *Solver) find(v int) int {
	for sv.parent[v] != v {
		sv.parent[v] = sv.parent[sv.parent[v]]
		v = sv.parent[v]
	}
	return v
}

// resize returns buf with length size, reallocating only when its
// capacity is short. The contents are unspecified.
func resize[T any](buf []T, size int) []T {
	if cap(buf) < size {
		return make([]T, size)
	}
	return buf[:size]
}
