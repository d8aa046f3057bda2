package distance

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"commsched/internal/routing"
	"commsched/internal/stats"
	"commsched/internal/topology"
)

func mustNet(t *testing.T, name string, n int, links []topology.Link) *topology.Network {
	t.Helper()
	net, err := topology.New(name, n, links, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func updown(t *testing.T, net *topology.Network) *routing.UpDown {
	t.Helper()
	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	return ud
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestComputePathGraph(t *testing.T) {
	// On a path there is a single route per pair: resistance == hops.
	net := mustNet(t, "path", 4, []topology.Link{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}})
	tab, err := Compute(net, updown(t, net))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := math.Abs(float64(i - j))
			if !almostEq(tab.At(i, j), want, 1e-9) {
				t.Fatalf("T[%d][%d] = %v, want %v", i, j, tab.At(i, j), want)
			}
		}
	}
}

func TestComputeCapturesPathMultiplicity(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3, plus nothing else. Rooted anywhere,
	// up*/down* allows both 2-hop routes 0→3 (up to root then down).
	// Two disjoint 2-resistor chains in parallel = 1 Ω < 2 hops.
	net := mustNet(t, "diamond", 4, []topology.Link{{A: 0, B: 1}, {A: 0, B: 2}, {A: 1, B: 3}, {A: 2, B: 3}})
	ud, err := routing.NewUpDown(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tab.At(0, 3), 1, 1e-9) {
		t.Fatalf("T[0][3] = %v, want 1 (two parallel 2-hop routes)", tab.At(0, 3))
	}
	// Adjacent pair with a single minimal route: plain 1 Ω.
	if !almostEq(tab.At(0, 1), 1, 1e-9) {
		t.Fatalf("T[0][1] = %v, want 1", tab.At(0, 1))
	}
}

func TestEquivalentLEQHops(t *testing.T) {
	// Equivalent distance never exceeds the legal hop distance (extra
	// parallel paths can only reduce resistance).
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(21)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud := updown(t, net)
	tab, err := Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if tab.At(i, j) > float64(ud.Distance(i, j))+1e-9 {
				t.Fatalf("T[%d][%d] = %v exceeds legal hop distance %d",
					i, j, tab.At(i, j), ud.Distance(i, j))
			}
		}
	}
}

func TestTableSymmetricZeroDiagonal(t *testing.T) {
	net, err := topology.RandomIrregular(12, 3, rand.New(rand.NewSource(4)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Compute(net, updown(t, net))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if tab.At(i, i) != 0 {
			t.Fatalf("diagonal T[%d][%d] = %v", i, i, tab.At(i, i))
		}
		for j := 0; j < 12; j++ {
			if tab.At(i, j) != tab.At(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
			if i != j && tab.At(i, j) <= 0 {
				t.Fatalf("non-positive off-diagonal at (%d,%d): %v", i, j, tab.At(i, j))
			}
		}
	}
}

func TestComputeDeterministicUnderParallelism(t *testing.T) {
	// Compute fans pairs across goroutines; repeated runs must produce
	// bit-identical tables.
	net, err := topology.RandomIrregular(20, 3, rand.New(rand.NewSource(31)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud := updown(t, net)
	a, err := Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("parallel Compute nondeterministic at (%d,%d)", i, j)
			}
		}
	}
}

func TestComputeReproducible(t *testing.T) {
	// Two calls on one 96-switch network must agree bit for bit.
	net, err := topology.RandomIrregular(96, 3, rand.New(rand.NewSource(7)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud := updown(t, net)
	a, err := Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for i := 0; i < 96; i++ {
		for j := 0; j < 96; j++ {
			if a.At(i, j) != b.At(i, j) {
				differ++
			}
		}
	}
	if differ > 0 {
		t.Fatalf("two Compute calls differ in %d of %d cells", differ, 96*96)
	}
}

func TestComputeLargeNetwork(t *testing.T) {
	// 80 switches: every pair is solved over its own route subgraph,
	// end to end on a network larger than any figure uses.
	net, err := topology.RandomIrregular(80, 3, rand.New(rand.NewSource(42)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Compute(net, updown(t, net))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		for j := i + 1; j < 80; j++ {
			if tab.At(i, j) <= 0 {
				t.Fatalf("non-positive distance at (%d,%d)", i, j)
			}
		}
	}
}

func TestHopTable(t *testing.T) {
	net := mustNet(t, "path", 3, []topology.Link{{A: 0, B: 1}, {A: 1, B: 2}})
	tab := HopTable(net, routing.NewShortestPath(net))
	if tab.At(0, 2) != 2 || tab.At(0, 1) != 1 || tab.At(1, 1) != 0 {
		t.Fatalf("hop table wrong: %v", tab.String())
	}
}

func TestQuadraticMean(t *testing.T) {
	tab, err := FromMatrix([][]float64{
		{0, 1, 2},
		{1, 0, 3},
		{2, 3, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// (1 + 4 + 9) / 3 pairs
	if !almostEq(tab.QuadraticMean(), 14.0/3, 1e-12) {
		t.Fatalf("QuadraticMean = %v, want %v", tab.QuadraticMean(), 14.0/3)
	}
	if !almostEq(tab.SumSquares(), 14, 1e-12) {
		t.Fatalf("SumSquares = %v, want 14", tab.SumSquares())
	}
}

func TestQuadraticMeanTinyTable(t *testing.T) {
	tab, err := FromMatrix([][]float64{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.QuadraticMean() != 0 {
		t.Fatal("QuadraticMean of a 1-switch table must be 0")
	}
}

func TestFromMatrixValidation(t *testing.T) {
	if _, err := FromMatrix([][]float64{{0, 1}, {1}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	if _, err := FromMatrix([][]float64{{1}}); err == nil {
		t.Fatal("nonzero diagonal accepted")
	}
	if _, err := FromMatrix([][]float64{{0, -1}, {-1, 0}}); err == nil {
		t.Fatal("negative distance accepted")
	}
	if _, err := FromMatrix([][]float64{{0, 1}, {2, 0}}); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
}

func TestTriangleViolationsDetected(t *testing.T) {
	// T[0][2] = 10 > T[0][1] + T[1][2] = 2: the table is not a metric.
	tab, err := FromMatrix([][]float64{
		{0, 1, 10},
		{1, 0, 1},
		{10, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.TriangleViolations(1e-9); got != 2 { // (0,1,2) and (2,1,0)
		t.Fatalf("TriangleViolations = %d, want 2", got)
	}
	metric, _ := FromMatrix([][]float64{
		{0, 1, 1},
		{1, 0, 1},
		{1, 1, 0},
	})
	if metric.TriangleViolations(1e-9) != 0 {
		t.Fatal("metric table reported violations")
	}
}

func TestEquivalentDistanceCanViolateTriangleInequality(t *testing.T) {
	// The paper notes the table of distances is not a metric. The routing
	// restriction makes this easy to exhibit: on a ring of 6 rooted at 0,
	// up*/down* forbids the direct 2-3-4 walk for the pair (2,4) (it would
	// go down then up), so the only legal route is the 4-hop detour
	// through the root: T(2,4) = 4. Meanwhile 2-3 and 3-4 are direct
	// links: T(2,3) = T(3,4) = 1, and 4 > 1 + 1.
	net, err := topology.Ring(6, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := routing.NewUpDown(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tab.At(2, 3), 1, 1e-9) || !almostEq(tab.At(3, 4), 1, 1e-9) {
		t.Fatalf("direct links: T(2,3)=%v T(3,4)=%v, want 1", tab.At(2, 3), tab.At(3, 4))
	}
	if tab.At(2, 4) <= tab.At(2, 3)+tab.At(3, 4)+1e-9 {
		t.Fatalf("expected triangle violation; T(2,4)=%v", tab.At(2, 4))
	}
	if got := tab.TriangleViolations(1e-9); got == 0 {
		t.Fatal("TriangleViolations failed to count the (2,3,4) violation")
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	net, err := topology.RandomIrregular(8, 3, rand.New(rand.NewSource(2)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Compute(net, updown(t, net))
	if err != nil {
		t.Fatal(err)
	}
	data, err := tab.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalTableJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if !almostEq(tab.At(i, j), back.At(i, j), 1e-12) {
				t.Fatal("JSON round trip changed values")
			}
		}
	}
	if _, err := UnmarshalTableJSON([]byte(`{"n":3,"d":[[0]]}`)); err == nil {
		t.Fatal("inconsistent n accepted")
	}
	if _, err := UnmarshalTableJSON([]byte(`garbage`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// The model's raison d'être: pairs with more minimal legal routes show a
// larger gap between hop distance and equivalent distance. Verified as a
// positive correlation between path multiplicity and (hops − resistance).
func TestPathMultiplicityDrivesResistanceGap(t *testing.T) {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(51)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud := updown(t, net)
	tab, err := Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	var multiplicity, gap []float64
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			multiplicity = append(multiplicity, float64(ud.CountShortestLegalPaths(i, j)))
			gap = append(gap, float64(ud.Distance(i, j))-tab.At(i, j))
		}
	}
	r, err := stats.Pearson(multiplicity, gap)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.3 {
		t.Fatalf("multiplicity/gap correlation r = %.3f, want clearly positive", r)
	}
	// Single-route pairs must have gap exactly 0.
	for k, m := range multiplicity {
		if m == 1 && math.Abs(gap[k]) > 1e-9 {
			t.Fatalf("single-route pair has nonzero gap %v", gap[k])
		}
	}
}

// Property: equivalent distance of directly linked switches is <= 1 (the
// direct link is always among the shortest routes) and > 0.
func TestQuickDirectLinkResistance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, err := topology.RandomIrregular(12, 3, rng, topology.Config{})
		if err != nil {
			return false
		}
		ud, err := routing.NewUpDown(net, -1)
		if err != nil {
			return false
		}
		tab, err := Compute(net, ud)
		if err != nil {
			return false
		}
		for _, l := range net.Links() {
			d := tab.At(l.A, l.B)
			if d <= 0 || d > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
