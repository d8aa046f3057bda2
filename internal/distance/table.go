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
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"commsched/internal/linalg"
	"commsched/internal/obs"
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
// effective-resistance solves are independent, so they are fanned out
// across GOMAXPROCS workers; the result is deterministic regardless of
// scheduling because each pair writes its own cells. A panic in a worker
// (e.g. a path provider misbehaving on a degraded topology) is recovered
// and surfaced as an error instead of crashing the process.
func Compute(net *topology.Network, provider routing.PathProvider) (*Table, error) {
	n := net.Switches()
	sp := obs.StartSpan("distance.compute", obs.F("switches", n), obs.F("pairs", n*(n-1)/2))
	t := newTable(n)
	err := forEachPair(n, func(i, j int) error {
		r, err := pairResistance(net, provider.PathLinks(i, j), i, j)
		if err != nil {
			return err
		}
		t.d[i][j] = r
		t.d[j][i] = r
		return nil
	})
	if err != nil {
		sp.End(obs.F("err", true))
		return nil, err
	}
	sp.End()
	return t, nil
}

// ComputeDelta rebuilds the table after a topology change, re-solving only
// the pairs whose shortest-route link sets actually changed between the
// old and new path providers and copying the rest from the old table. Both
// providers must be defined over the same switch-ID space (use it only
// when no switch died, so IDs are stable); the returned count is the
// number of re-solved pairs.
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
	var recomputed atomic.Int64
	err := forEachPair(n, func(i, j int) error {
		links := provider.PathLinks(i, j)
		if sameLinkSet(links, oldProvider.PathLinks(i, j)) {
			t.d[i][j] = old.d[i][j]
			t.d[j][i] = old.d[j][i]
			return nil
		}
		recomputed.Add(1)
		r, err := pairResistance(net, links, i, j)
		if err != nil {
			return err
		}
		t.d[i][j] = r
		t.d[j][i] = r
		return nil
	})
	if err != nil {
		sp.End(obs.F("err", true))
		return nil, 0, err
	}
	sp.End(obs.F("recomputed", int(recomputed.Load())), obs.F("reused", n*(n-1)/2-int(recomputed.Load())))
	return t, int(recomputed.Load()), nil
}

// sameLinkSet reports whether two canonical link slices contain the same
// links, ignoring order.
func sameLinkSet(a, b []topology.Link) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	seen := make(map[topology.Link]bool, len(a))
	for _, l := range a {
		seen[l] = true
	}
	for _, l := range b {
		if !seen[l] {
			return false
		}
	}
	return true
}

// forEachPair fans fn out over all i<j pairs across GOMAXPROCS workers,
// converting worker panics into errors and stopping early on the first
// failure.
func forEachPair(n int, fn func(i, j int) error) error {
	type pair struct{ i, j int }
	pairs := make([]pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Pointer[error]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					err := fmt.Errorf("distance: worker panic: %v", r)
					failed.CompareAndSwap(nil, &err)
				}
			}()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(pairs) || failed.Load() != nil {
					return
				}
				p := pairs[k]
				if err := fn(p.i, p.j); err != nil {
					failed.CompareAndSwap(nil, &err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if errp := failed.Load(); errp != nil {
		return *errp
	}
	return nil
}

// pairResistance computes one cell: the effective resistance between i and
// j over the links of their shortest supplied routes. The resistor network
// is solved over its own nodes only — the switches the links touch plus i
// and j, renumbered in ascending switch order — so the cost follows the
// route subgraph, not the network. The grounded system is the one the
// global solve builds (same node order, same edge order), so the result
// is bit-identical to linalg.EffectiveResistance over global indices.
func pairResistance(net *topology.Network, links []topology.Link, i, j int) (float64, error) {
	if len(links) == 0 {
		return 0, fmt.Errorf("distance: no route between switches %d and %d", i, j)
	}
	n := net.Switches()
	nodes := make([]int, 0, 2*len(links)+2)
	nodes = append(nodes, i, j)
	for _, l := range links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return 0, fmt.Errorf("distance: route link %d-%d for pair (%d,%d) has an endpoint outside [0,%d)", l.A, l.B, i, j, n)
		}
		nodes = append(nodes, l.A, l.B)
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	local := func(s int) int {
		k, _ := slices.BinarySearch(nodes, s)
		return k
	}
	edges := make([]linalg.WeightedEdge, len(links))
	for k, l := range links {
		edges[k] = linalg.WeightedEdge{U: local(l.A), V: local(l.B), Weight: 1}
	}
	r, err := linalg.EffectiveResistance(len(nodes), edges, local(i), local(j))
	if err != nil {
		return 0, fmt.Errorf("distance: resistance between %d and %d: %w", i, j, err)
	}
	return r, nil
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

func newTable(n int) *Table {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
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

// MaxDistance returns the largest entry.
func (t *Table) MaxDistance() float64 {
	max := 0.0
	for i := 0; i < t.n; i++ {
		for j := i + 1; j < t.n; j++ {
			if t.d[i][j] > max {
				max = t.d[i][j]
			}
		}
	}
	return max
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
