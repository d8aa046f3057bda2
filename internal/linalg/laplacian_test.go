package linalg

import (
	"errors"
	"math"
	"math/rand"
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

// laplacian returns the n×n row-major Laplacian of edges.
func laplacian(t *testing.T, n int, edges []WeightedEdge) []float64 {
	t.Helper()
	l := make([]float64, n*n)
	if err := addLaplacian(l, n, edges); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLaplacianStructure(t *testing.T) {
	// Triangle on 3 nodes.
	l := laplacian(t, 3, unitEdges([][2]int{{0, 1}, {1, 2}, {0, 2}}))
	for i := 0; i < 3; i++ {
		if l[i*3+i] != 2 {
			t.Fatalf("degree of node %d = %v, want 2", i, l[i*3+i])
		}
		rowSum := 0.0
		for j := 0; j < 3; j++ {
			rowSum += l[i*3+j]
			if l[i*3+j] != l[j*3+i] {
				t.Fatalf("Laplacian not symmetric at (%d,%d)", i, j)
			}
		}
		if rowSum != 0 {
			t.Fatalf("row %d sums to %v, want 0", i, rowSum)
		}
	}
}

func TestLaplacianIgnoresSelfLoops(t *testing.T) {
	l := laplacian(t, 2, []WeightedEdge{{U: 0, V: 0, Weight: 5}, {U: 0, V: 1, Weight: 1}})
	if l[0] != 1 {
		t.Fatalf("self loop affected Laplacian: L[0][0] = %v, want 1", l[0])
	}
}

func TestLaplacianParallelEdgesAccumulate(t *testing.T) {
	l := laplacian(t, 2, unitEdges([][2]int{{0, 1}, {0, 1}}))
	if l[1] != -2 {
		t.Fatalf("parallel edges: L[0][1] = %v, want -2", l[1])
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
