package linalg

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func unitEdges(pairs [][2]int) []WeightedEdge {
	es := make([]WeightedEdge, len(pairs))
	for i, p := range pairs {
		es[i] = WeightedEdge{U: p[0], V: p[1], Weight: 1}
	}
	return es
}

// fullLaplacian is the reference the grounded assembly is held to: the
// n×n row-major Laplacian L = D − A of edges, self loops ignored.
func fullLaplacian(n int, edges []WeightedEdge) []float64 {
	l := make([]float64, n*n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		l[e.U*n+e.U] += e.Weight
		l[e.V*n+e.V] += e.Weight
		l[e.U*n+e.V] -= e.Weight
		l[e.V*n+e.U] -= e.Weight
	}
	return l
}

// grounded returns the m×m system Solver.ground assembles for the s–t
// resistance and the node of each of its rows.
func grounded(t *testing.T, n int, edges []WeightedEdge, s, tt int) ([]float64, []int) {
	t.Helper()
	var sv Solver
	m, err := sv.ground(n, edges, s, tt)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, m)
	for v, r := range sv.row {
		if r >= 0 {
			nodes[r] = v
		}
	}
	return sv.red[:m*m], nodes
}

// TestLaplacianStructure: the grounded system is the full Laplacian with
// t's row and column deleted, restricted to the s–t component, entry for
// entry and bit for bit — on a graph with a parallel edge, a self loop,
// an isolated node and a second component, and with conductances whose
// sums round.
func TestLaplacianStructure(t *testing.T) {
	const n = 7
	edges := []WeightedEdge{
		{U: 0, V: 1, Weight: 0.1}, {U: 1, V: 2, Weight: 1}, {U: 0, V: 2, Weight: 0.7},
		{U: 2, V: 1, Weight: 0.2}, // parallel to 1–2
		{U: 2, V: 2, Weight: 5},   // self loop
		{U: 3, V: 0, Weight: 0.3}, {U: 3, V: 2, Weight: 1},
		{U: 5, V: 6, Weight: 1}, // another component; 4 is isolated
	}
	full := fullLaplacian(n, edges)
	component := []int{0, 1, 2, 3}
	for _, s := range component {
		for _, tt := range component {
			if s == tt {
				continue
			}
			red, nodes := grounded(t, n, edges, s, tt)
			var want []int
			for _, v := range component {
				if v != tt {
					want = append(want, v)
				}
			}
			if !slices.Equal(nodes, want) {
				t.Fatalf("s=%d t=%d: grounded rows are nodes %v, want %v", s, tt, nodes, want)
			}
			m := len(nodes)
			for a, u := range nodes {
				for b, v := range nodes {
					if got, want := red[a*m+b], full[u*n+v]; got != want {
						t.Fatalf("s=%d t=%d: grounded[%d][%d] = %v, full L[%d][%d] = %v", s, tt, a, b, got, u, v, want)
					}
				}
			}
		}
	}
}

func TestLaplacianIgnoresSelfLoops(t *testing.T) {
	red, _ := grounded(t, 2, []WeightedEdge{{U: 0, V: 0, Weight: 5}, {U: 0, V: 1, Weight: 1}}, 0, 1)
	if len(red) != 1 || red[0] != 1 {
		t.Fatalf("self loop affected the grounded Laplacian: %v, want [1]", red)
	}
}

func TestLaplacianParallelEdgesAccumulate(t *testing.T) {
	red, _ := grounded(t, 3, unitEdges([][2]int{{0, 1}, {0, 1}, {1, 2}}), 0, 2)
	if want := []float64{2, -2, -2, 3}; !slices.Equal(red, want) {
		t.Fatalf("parallel edges: grounded Laplacian %v, want %v", red, want)
	}
}

func TestEffectiveResistanceSingleEdge(t *testing.T) {
	r, err := EffectiveResistance(2, unitEdges([][2]int{{0, 1}}), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Fatalf("R = %v, want 1", r)
	}
}

func TestEffectiveResistanceSeries(t *testing.T) {
	// Path 0-1-2: two unit resistors in series = 2 Ω.
	r, err := EffectiveResistance(3, unitEdges([][2]int{{0, 1}, {1, 2}}), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 2, 1e-12) {
		t.Fatalf("series R = %v, want 2", r)
	}
}

func TestEffectiveResistanceParallel(t *testing.T) {
	// Two parallel unit resistors = 0.5 Ω.
	r, err := EffectiveResistance(2, unitEdges([][2]int{{0, 1}, {0, 1}}), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 0.5, 1e-12) {
		t.Fatalf("parallel R = %v, want 0.5", r)
	}
}

func TestEffectiveResistanceSquare(t *testing.T) {
	// Cycle 0-1-2-3-0, opposite corners: (1+1) ∥ (1+1) = 1 Ω.
	edges := unitEdges([][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	r, err := EffectiveResistance(4, edges, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Fatalf("square diagonal R = %v, want 1", r)
	}
	// Adjacent corners: 1 ∥ 3 = 0.75 Ω.
	r, err = EffectiveResistance(4, edges, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 0.75, 1e-12) {
		t.Fatalf("square edge R = %v, want 0.75", r)
	}
}

func TestEffectiveResistanceWheatstoneBalanced(t *testing.T) {
	// Balanced Wheatstone bridge: bridge edge carries no current, so R = 1.
	// Nodes: 0 (s), 1, 2, 3 (t); all arms unit, bridge 1-2 unit.
	edges := unitEdges([][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 2}})
	r, err := EffectiveResistance(4, edges, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Fatalf("balanced bridge R = %v, want 1", r)
	}
}

func TestEffectiveResistanceSameNode(t *testing.T) {
	r, err := EffectiveResistance(2, unitEdges([][2]int{{0, 1}}), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Fatalf("R(i,i) = %v, want 0", r)
	}
}

func TestEffectiveResistanceDisconnected(t *testing.T) {
	_, err := EffectiveResistance(4, unitEdges([][2]int{{0, 1}, {2, 3}}), 0, 3)
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
}

// A grounded Laplacian that is not positive definite has no Cholesky
// factor, and the solve reports ErrSingular rather than a resistance:
// with conductance −1 on edge 0–1 the grounded system is [−1].
func TestEffectiveResistanceNotPositiveDefinite(t *testing.T) {
	r, err := EffectiveResistance(2, []WeightedEdge{{U: 0, V: 1, Weight: -1}}, 0, 1)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("R = %v, err = %v, want ErrSingular", r, err)
	}
}

func TestEffectiveResistanceIgnoresOtherComponents(t *testing.T) {
	// A disconnected extra component must not break the solve.
	edges := unitEdges([][2]int{{0, 1}, {2, 3}})
	r, err := EffectiveResistance(4, edges, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Fatalf("R = %v, want 1", r)
	}
}

func TestEffectiveResistanceOutOfRange(t *testing.T) {
	if _, err := EffectiveResistance(2, nil, 0, 5); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := EffectiveResistance(2, nil, -1, 0); err == nil {
		t.Fatal("expected out-of-range error")
	}
	// An edge endpoint outside [0, n) is an error naming the edge, never
	// a panic or a silent write — (0,20) at n = 16 has a flat Laplacian
	// index, 0·16+20, inside the 16×16 buffer.
	for _, c := range []struct {
		n     int
		edges [][2]int
		name  string
	}{
		{2, [][2]int{{0, 5}, {0, 1}}, "0-5"},
		{2, [][2]int{{0, 1}, {1, 2}}, "1-2"},
		{3, [][2]int{{0, 1}, {-1, 2}}, "-1-2"},
		{16, [][2]int{{0, 1}, {0, 20}}, "0-20"},
	} {
		_, err := EffectiveResistance(c.n, unitEdges(c.edges), 0, 1)
		if err == nil || !strings.HasPrefix(err.Error(), "linalg: ") || !strings.Contains(err.Error(), c.name) {
			t.Fatalf("n=%d edges %v: err = %v, want a linalg error naming edge %s", c.n, c.edges, err, c.name)
		}
	}
}

func TestEffectiveResistanceWeighted(t *testing.T) {
	// Conductance 2 (i.e. 0.5 Ω resistor) in series with conductance 1.
	edges := []WeightedEdge{{U: 0, V: 1, Weight: 2}, {U: 1, V: 2, Weight: 1}}
	r, err := EffectiveResistance(3, edges, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1.5, 1e-12) {
		t.Fatalf("weighted series R = %v, want 1.5", r)
	}
}

// Property: effective resistance is symmetric in its terminals, at most the
// shortest-path hop distance, and positive for distinct connected nodes.
func TestQuickResistanceProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		// Random connected graph: spanning path + extra random edges.
		var edges []WeightedEdge
		for i := 1; i < n; i++ {
			edges = append(edges, WeightedEdge{U: i - 1, V: i, Weight: 1})
		}
		extra := rng.Intn(2 * n)
		for k := 0; k < extra; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, WeightedEdge{U: u, V: v, Weight: 1})
			}
		}
		s, tt := rng.Intn(n), rng.Intn(n)
		r1, err := EffectiveResistance(n, edges, s, tt)
		if err != nil {
			return false
		}
		r2, err := EffectiveResistance(n, edges, tt, s)
		if err != nil {
			return false
		}
		if !almostEq(r1, r2, 1e-9) {
			return false
		}
		if s == tt {
			return r1 == 0
		}
		// Path graph base guarantees hop distance ≤ |s-t|; extra parallel
		// edges can only lower resistance (Rayleigh monotonicity).
		hop := float64(abs(s - tt))
		return r1 > 0 && r1 <= hop+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Property (Rayleigh monotonicity): adding an edge never increases the
// effective resistance between any pair.
func TestQuickRayleighMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		var edges []WeightedEdge
		for i := 1; i < n; i++ {
			edges = append(edges, WeightedEdge{U: i - 1, V: i, Weight: 1})
		}
		extra := rng.Intn(n)
		for k := 0; k < extra; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, WeightedEdge{U: u, V: v, Weight: 1})
			}
		}
		s, tt := rng.Intn(n), rng.Intn(n)
		before, err := EffectiveResistance(n, edges, s, tt)
		if err != nil {
			return false
		}
		// Add one random edge.
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			v = (u + 1) % n
		}
		after, err := EffectiveResistance(n, append(edges, WeightedEdge{U: u, V: v, Weight: 1}), s, tt)
		if err != nil {
			return false
		}
		return after <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
