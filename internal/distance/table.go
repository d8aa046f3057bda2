// Package distance implements the paper's model of communication cost: the
// table of equivalent distances (Arnau, Orduña, Ruiz, Duato — PDCS'99).
//
// For each pair of switches (i, j), only the links belonging to shortest
// paths *supplied by the routing algorithm* are kept; each kept link is
// replaced by a unit resistor; and the equivalent distance T[i][j] is the
// electrical equivalent resistance between i and j in that resistor
// network. A pair joined by many disjoint minimal routes therefore looks
// "closer" than a pair joined by a single route of the same hop length —
// capturing available bandwidth, not just latency.
//
// The table depends only on the topology and the routing algorithm, never
// on the traffic pattern, and in general does not satisfy the triangle
// inequality (it is not a metric).
package distance

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"commsched/internal/linalg"
	"commsched/internal/obs"
	"commsched/internal/par"
	"commsched/internal/routing"
	"commsched/internal/topology"
)

// Table is the symmetric N×N table of equivalent distances between
// switches.
type Table struct {
	n int
	d [][]float64
}

// Compute builds the table of equivalent distances for the network using
// the shortest paths supplied by the given routing algorithm. The N(N−1)/2
// effective-resistance solves are independent, so they are fanned out a
// row at a time across par's local workers. Each worker reuses its own
// scratch — route links, subgraph and solver buffers — so a table
// allocates per worker, not per pair, and writes only the upper-triangle
// cells of the rows it takes; the lower triangle is mirrored once every
// row is done. The result is deterministic regardless of scheduling
// because each pair writes its own cell. A panic in a worker (e.g. a path
// provider misbehaving on a degraded topology) is recovered and surfaced
// as an error instead of crashing the process.
func Compute(net *topology.Network, provider routing.PathProvider) (*Table, error) {
	n := net.Switches()
	sp := obs.StartSpan("distance.compute", obs.F("switches", n), obs.F("pairs", n*(n-1)/2))
	t := newTable(n)
	_, err := forEachRow(n, func(ps *pairSolver, i int) error {
		row := t.d[i]
		for j := i + 1; j < n; j++ {
			ps.links = provider.AppendPathLinks(ps.links[:0], i, j)
			r, err := ps.resistance(ps.links, i, j)
			if err != nil {
				return err
			}
			row[j] = r
		}
		return nil
	})
	if err != nil {
		sp.End(obs.F("err", true))
		return nil, err
	}
	t.mirrorUpper()
	sp.End()
	return t, nil
}

// ComputeDelta rebuilds the table after a topology change, re-solving only
// the pairs whose shortest-route link sets actually changed between the
// old and new path providers and copying the rest from the old table. Both
// providers must be defined over the same switch-ID space (use it only
// when no switch died, so IDs are stable); the returned count is the
// number of re-solved pairs. It fans rows out as Compute does, with both
// providers' route links in each worker's scratch.
func ComputeDelta(net *topology.Network, provider, oldProvider routing.PathProvider, old *Table) (*Table, int, error) {
	n := net.Switches()
	if old == nil || oldProvider == nil {
		t, err := Compute(net, provider)
		return t, n * (n - 1) / 2, err
	}
	if old.N() != n {
		return nil, 0, fmt.Errorf("distance: old table covers %d switches, network has %d", old.N(), n)
	}
	sp := obs.StartSpan("distance.compute_delta", obs.F("switches", n), obs.F("pairs", n*(n-1)/2))
	t := newTable(n)
	solvers, err := forEachRow(n, func(ps *pairSolver, i int) error {
		row, oldRow := t.d[i], old.d[i]
		for j := i + 1; j < n; j++ {
			ps.links = provider.AppendPathLinks(ps.links[:0], i, j)
			ps.oldLinks = oldProvider.AppendPathLinks(ps.oldLinks[:0], i, j)
			if sameLinkSet(ps.links, ps.oldLinks) {
				row[j] = oldRow[j]
				continue
			}
			ps.recomputed++
			r, err := ps.resistance(ps.links, i, j)
			if err != nil {
				return err
			}
			row[j] = r
		}
		return nil
	})
	if err != nil {
		sp.End(obs.F("err", true))
		return nil, 0, err
	}
	t.mirrorUpper()
	recomputed := 0
	for _, ps := range solvers {
		recomputed += ps.recomputed
	}
	sp.End(obs.F("recomputed", recomputed), obs.F("reused", n*(n-1)/2-recomputed))
	return t, recomputed, nil
}

// sameLinkSet reports whether two link slices, each without repeats as
// AppendPathLinks appends them, contain the same links in any order.
// Route link sets are small, so a scan beats building a set.
func sameLinkSet(a, b []topology.Link) bool {
	if len(a) != len(b) {
		return false
	}
	for _, l := range b {
		if !slices.Contains(a, l) {
			return false
		}
	}
	return true
}

// forEachRow runs fn for every row i of the table's upper triangle — the
// pairs (i, j), j > i — on par's local workers, each with its own
// pairSolver, and returns the solvers once every row is done. It passes
// context.TODO: Compute and ComputeDelta take no context, so a table is
// never abandoned partway through.
func forEachRow(n int, fn func(ps *pairSolver, i int) error) ([]*pairSolver, error) {
	var (
		mu      sync.Mutex
		solvers []*pairSolver
	)
	newSolver := func() *pairSolver {
		ps := newPairSolver(n)
		mu.Lock()
		solvers = append(solvers, ps)
		mu.Unlock()
		return ps
	}
	err := par.Local(context.TODO(), n-1, newSolver, func(_ context.Context, ps *pairSolver, i int) error {
		return fn(ps, i)
	})
	return solvers, err
}

// pairSolver is one worker's scratch for solving pairs: the pair's route
// links (new and, in ComputeDelta, old), the resistance solver, the route
// subgraph's nodes and edges, and a dense switch → local-index map.
// Nothing in it but the re-solve count outlives a pair, so the worker
// reuses it for every pair it takes.
type pairSolver struct {
	links, oldLinks []topology.Link
	solver          linalg.Solver
	nodes           []int
	edges           []linalg.WeightedEdge
	local           []int // local[s] = index of switch s among nodes, −1 when absent
	recomputed      int   // pairs ComputeDelta re-solved on this worker
}

func newPairSolver(n int) *pairSolver {
	ps := &pairSolver{local: make([]int, n)}
	for s := range ps.local {
		ps.local[s] = -1
	}
	return ps
}

// resistance computes one cell: the effective resistance between i and j
// over the links of their shortest supplied routes. The resistor network
// is solved over its own nodes only — the switches the links touch plus i
// and j, renumbered in ascending switch order — so the cost follows the
// route subgraph, not the network. The grounded system is the one the
// global solve builds (same node order; the Laplacian's entries are sums
// of unit conductances, exact in any link order), so the result is
// bit-identical to linalg.EffectiveResistance over global indices.
func (ps *pairSolver) resistance(links []topology.Link, i, j int) (float64, error) {
	if len(links) == 0 {
		return 0, fmt.Errorf("distance: no route between switches %d and %d", i, j)
	}
	n := len(ps.local)
	for _, l := range links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return 0, fmt.Errorf("distance: route link %d-%d for pair (%d,%d) has an endpoint outside [0,%d)", l.A, l.B, i, j, n)
		}
	}
	ps.nodes = ps.nodes[:0]
	ps.add(i)
	ps.add(j)
	for _, l := range links {
		ps.add(l.A)
		ps.add(l.B)
	}
	slices.Sort(ps.nodes)
	for k, s := range ps.nodes {
		ps.local[s] = k
	}
	ps.edges = ps.edges[:0]
	for _, l := range links {
		ps.edges = append(ps.edges, linalg.WeightedEdge{U: ps.local[l.A], V: ps.local[l.B], Weight: 1})
	}
	r, err := ps.solver.EffectiveResistance(len(ps.nodes), ps.edges, ps.local[i], ps.local[j])
	for _, s := range ps.nodes {
		ps.local[s] = -1
	}
	if err != nil {
		return 0, fmt.Errorf("distance: resistance between %d and %d: %w", i, j, err)
	}
	return r, nil
}

// add makes switch s a node of the current route subgraph, once.
func (ps *pairSolver) add(s int) {
	if ps.local[s] < 0 {
		ps.local[s] = 0
		ps.nodes = append(ps.nodes, s)
	}
}

// HopTable builds a plain hop-count table from the same path provider —
// the ablation baseline that ignores path multiplicity.
func HopTable(net *topology.Network, provider routing.PathProvider) *Table {
	n := net.Switches()
	t := newTable(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				t.d[i][j] = float64(provider.Distance(i, j))
			}
		}
	}
	return t
}

// FromMatrix wraps an explicit symmetric matrix of distances (used by
// tests and by deserialization). The diagonal must be zero.
func FromMatrix(d [][]float64) (*Table, error) {
	n := len(d)
	t := newTable(n)
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("distance: row %d has %d entries, want %d", i, len(d[i]), n)
		}
		if d[i][i] != 0 {
			return nil, fmt.Errorf("distance: diagonal entry (%d,%d) = %v, want 0", i, i, d[i][i])
		}
		for j := range d[i] {
			if d[i][j] < 0 {
				return nil, fmt.Errorf("distance: negative distance at (%d,%d)", i, j)
			}
			if math.Abs(d[i][j]-d[j][i]) > 1e-9 {
				return nil, fmt.Errorf("distance: asymmetric entries at (%d,%d)", i, j)
			}
			t.d[i][j] = d[i][j]
		}
	}
	return t, nil
}

// mirrorUpper copies each upper-triangle cell to its lower-triangle twin.
func (t *Table) mirrorUpper() {
	for i := 0; i < t.n; i++ {
		for j := i + 1; j < t.n; j++ {
			t.d[j][i] = t.d[i][j]
		}
	}
}

// newTable returns an all-zero n×n table whose rows share one backing
// array.
func newTable(n int) *Table {
	cells := make([]float64, n*n)
	d := make([][]float64, n)
	for i := range d {
		d[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	return &Table{n: n, d: d}
}

// N returns the number of switches the table covers.
func (t *Table) N() int { return t.n }

// At returns the equivalent distance between switches i and j.
func (t *Table) At(i, j int) float64 { return t.d[i][j] }

// QuadraticMean returns the quadratic average of all pairwise distances,
//
//	Σ_{i<j} T[i][j]² / (N(N−1)/2),
//
// the normalization constant of the paper's global quality functions.
func (t *Table) QuadraticMean() float64 {
	if t.n < 2 {
		return 0
	}
	s := 0.0
	for i := 0; i < t.n; i++ {
		for j := i + 1; j < t.n; j++ {
			s += t.d[i][j] * t.d[i][j]
		}
	}
	return s / float64(t.n*(t.n-1)/2)
}

// SumSquares returns Σ_{i<j} T[i][j]².
func (t *Table) SumSquares() float64 {
	s := 0.0
	for i := 0; i < t.n; i++ {
		for j := i + 1; j < t.n; j++ {
			s += t.d[i][j] * t.d[i][j]
		}
	}
	return s
}

// TriangleViolations counts ordered triples (i,j,k) with
// T[i][k] > T[i][j] + T[j][k] + eps — the paper's observation that the
// table does not define a metric space.
func (t *Table) TriangleViolations(eps float64) int {
	count := 0
	for i := 0; i < t.n; i++ {
		for j := 0; j < t.n; j++ {
			if j == i {
				continue
			}
			for k := 0; k < t.n; k++ {
				if k == i || k == j {
					continue
				}
				if t.d[i][k] > t.d[i][j]+t.d[j][k]+eps {
					count++
				}
			}
		}
	}
	return count
}

// MarshalJSON encodes the table as {"n":N,"d":[[...]]}.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		N int         `json:"n"`
		D [][]float64 `json:"d"`
	}{t.n, t.d})
}

// UnmarshalTableJSON decodes a table written by MarshalJSON.
func UnmarshalTableJSON(data []byte) (*Table, error) {
	var w struct {
		N int         `json:"n"`
		D [][]float64 `json:"d"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("distance: decoding table: %w", err)
	}
	if len(w.D) != w.N {
		return nil, fmt.Errorf("distance: table claims n=%d but has %d rows", w.N, len(w.D))
	}
	return FromMatrix(w.D)
}

// String renders the table with 3 decimal places for inspection.
func (t *Table) String() string {
	var b strings.Builder
	for i := 0; i < t.n; i++ {
		for j := 0; j < t.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%6.3f", t.d[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
