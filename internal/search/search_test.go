package search

import (
	"math"
	"math/rand"
	"testing"

	"commsched/internal/distance"
	"commsched/internal/mapping"
	"commsched/internal/quality"
	"commsched/internal/routing"
	"commsched/internal/topology"
)

// blockTable builds an n-switch table with k perfect blocks of size n/k:
// distance eps inside a block, 10 across blocks. The optimal partition
// into k clusters is obviously the blocks.
func blockTable(t *testing.T, n, k int) *distance.Table {
	t.Helper()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	per := n / k
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if i/per == j/per {
				d[i][j] = 0.5
			} else {
				d[i][j] = 10
			}
		}
	}
	tab, err := distance.FromMatrix(d)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// blockOptimal is the IntraSum of the block partition of blockTable.
func blockOptimal(n, k int) float64 {
	per := n / k
	pairs := k * per * (per - 1) / 2
	return float64(pairs) * 0.25
}

func evalFor(t testing.TB, net *topology.Network) *quality.Evaluator {
	t.Helper()
	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := distance.Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	return quality.NewEvaluator(tab)
}

func spec(t *testing.T, n, m int) Spec {
	t.Helper()
	s, err := BalancedSpec(n, m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBalancedSpec(t *testing.T) {
	s := spec(t, 16, 4)
	if s.N() != 16 || s.M() != 4 {
		t.Fatalf("N=%d M=%d", s.N(), s.M())
	}
	if _, err := BalancedSpec(10, 4); err == nil {
		t.Fatal("indivisible spec accepted")
	}
	if _, err := BalancedSpec(0, 0); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	e := quality.NewEvaluator(blockTable(t, 8, 2))
	if err := (Spec{Sizes: []int{4, 4}}).validate(e); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if err := (Spec{}).validate(e); err == nil {
		t.Fatal("empty spec accepted")
	}
	if err := (Spec{Sizes: []int{4, 0, 4}}).validate(e); err == nil {
		t.Fatal("zero-size cluster accepted")
	}
	if err := (Spec{Sizes: []int{4, 3}}).validate(e); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// allSearchers returns every heuristic with its default parameters.
func allSearchers() []Searcher {
	return []Searcher{
		NewTabu(), NewGreedy(), NewAnneal(), NewGenetic(), NewGSA(),
		NewRandomSample(), NewExhaustive(),
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"tabu": "tabu", "greedy": "greedy", "sa": "simulated-annealing", "ga": "genetic",
		"gsa": "genetic-simulated-annealing", "random": "random", "exhaustive": "exhaustive",
	} {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != want {
			t.Errorf("ByName(%q).Name() = %q, want %q", name, s.Name(), want)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestAllSearchersFindBlockOptimumSmall(t *testing.T) {
	// 8 switches, 2 blocks — tiny enough that every heuristic except the
	// single random draw must find the planted optimum.
	tab := blockTable(t, 8, 2)
	e := quality.NewEvaluator(tab)
	sp := spec(t, 8, 2)
	want := blockOptimal(8, 2)
	for _, s := range allSearchers() {
		if s.Name() == "random" {
			continue
		}
		res, err := s.Search(nil, e, sp, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if math.Abs(res.BestIntraSum-want) > 1e-9 {
			t.Errorf("%s: best = %v, want planted optimum %v", s.Name(), res.BestIntraSum, want)
		}
		// The best partition must group the blocks.
		p := res.Best.Canonical()
		for s2 := 0; s2 < 8; s2++ {
			if p.Cluster(s2) != s2/4 {
				t.Errorf("%s: partition %v does not match planted blocks", s.Name(), res.Best)
				break
			}
		}
	}
}

func TestSearchersRejectBadSpec(t *testing.T) {
	e := quality.NewEvaluator(blockTable(t, 8, 2))
	bad := Spec{Sizes: []int{3, 3}}
	for _, s := range allSearchers() {
		if _, err := s.Search(nil, e, bad, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%s accepted a mismatched spec", s.Name())
		}
	}
}

func TestSearchersDeterministicPerSeed(t *testing.T) {
	e := quality.NewEvaluator(blockTable(t, 12, 3))
	sp := spec(t, 12, 3)
	for _, s := range allSearchers() {
		r1, err := s.Search(nil, e, sp, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		r2, err := s.Search(nil, e, sp, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if r1.BestIntraSum != r2.BestIntraSum {
			t.Errorf("%s: same seed gave %v then %v", s.Name(), r1.BestIntraSum, r2.BestIntraSum)
		}
		if !r1.Best.Canonical().Equal(r2.Best.Canonical()) {
			t.Errorf("%s: same seed gave different partitions", s.Name())
		}
	}
}

func TestTabuMatchesExhaustiveOnRealTopology(t *testing.T) {
	// The paper's optimality check: on networks up to 16 switches, the
	// Tabu minimum equals the exhaustive minimum. 12 switches keeps the
	// test fast (12!/(4!³·3!) = 5775 partitions).
	net, err := topology.RandomIrregular(12, 3, rand.New(rand.NewSource(77)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := evalFor(t, net)
	sp := spec(t, 12, 3)
	ex, err := NewExhaustive().Search(nil, e, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTabu().Search(nil, e, sp, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tb.BestIntraSum-ex.BestIntraSum) > 1e-9 {
		t.Fatalf("tabu best %v != exhaustive optimum %v", tb.BestIntraSum, ex.BestIntraSum)
	}
}

func TestTabuTraceRecordsRestarts(t *testing.T) {
	e := quality.NewEvaluator(blockTable(t, 12, 3))
	sp := spec(t, 12, 3)
	tb := NewTabu()
	tb.RecordTrace = true
	res, err := tb.Search(nil, e, sp, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("trace empty with RecordTrace")
	}
	// Figure 1's shape: the trace spans all restarts and iterations are
	// nondecreasing.
	lastRestart, lastIter := -1, -1
	maxRestart := 0
	for _, tp := range res.Trace {
		if tp.Iteration < lastIter {
			t.Fatal("trace iterations not monotonic")
		}
		if tp.Restart < lastRestart {
			t.Fatal("trace restarts not monotonic")
		}
		lastIter, lastRestart = tp.Iteration, tp.Restart
		if tp.Restart > maxRestart {
			maxRestart = tp.Restart
		}
		if tp.F < 0 {
			t.Fatal("negative F in trace")
		}
	}
	if maxRestart != tb.Restarts-1 {
		t.Fatalf("trace covers %d restarts, want %d", maxRestart+1, tb.Restarts)
	}
}

func TestTabuBothStopCriteriaOccur(t *testing.T) {
	// The paper (Figure 1 discussion) observes both per-restart stop modes:
	// some seeds stop after reaching the same local minimum three times,
	// others run the full 20 iterations. Verify both appear across the
	// canonical configuration on a real instance.
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(2000)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := evalFor(t, net)
	sp := spec(t, 16, 4)
	tb := NewTabu()
	tb.RecordTrace = true
	res, err := tb.Search(nil, e, sp, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	// Count trace points per restart: a restart that ran all 20
	// iterations has 21 points (start + 20); shorter ones stopped early
	// via the repeat rule.
	perRestart := map[int]int{}
	for _, tp := range res.Trace {
		perRestart[tp.Restart]++
	}
	full, early := 0, 0
	for _, n := range perRestart {
		if n >= tb.MaxIterations+1 {
			full++
		} else {
			early++
		}
	}
	if early == 0 {
		t.Fatal("no restart stopped via the same-local-minimum rule")
	}
	if full == 0 {
		t.Fatal("no restart ran the full iteration budget")
	}
}

func TestTabuNoTraceByDefault(t *testing.T) {
	e := quality.NewEvaluator(blockTable(t, 8, 2))
	res, err := NewTabu().Search(nil, e, spec(t, 8, 2), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 0 {
		t.Fatal("trace recorded without RecordTrace")
	}
}

func TestTabuBeatsSingleRandomDraw(t *testing.T) {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(55)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := evalFor(t, net)
	sp := spec(t, 16, 4)
	tb, err := NewTabu().Search(nil, e, sp, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewRandomSample().Search(nil, e, sp, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if tb.BestIntraSum >= rd.BestIntraSum {
		t.Fatalf("tabu (%v) did not beat a random draw (%v)", tb.BestIntraSum, rd.BestIntraSum)
	}
}

func TestExhaustiveCountsPartitions(t *testing.T) {
	// 6 switches into 2 unlabeled clusters of 3: 6!/(3!²·2!) = 10.
	e := quality.NewEvaluator(blockTable(t, 6, 2))
	res, err := NewExhaustive().Search(nil, e, spec(t, 6, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pruning may skip complete partitions, so Iterations <= 10; disable
	// pruning indirectly by checking it at least finds the optimum.
	if res.Iterations > 10 {
		t.Fatalf("enumerated %d partitions, want <= 10 (label symmetry must be broken)", res.Iterations)
	}
	if math.Abs(res.BestIntraSum-blockOptimal(6, 2)) > 1e-9 {
		t.Fatalf("exhaustive missed optimum: %v", res.BestIntraSum)
	}
}

func TestExhaustiveUnequalSizes(t *testing.T) {
	// Unequal clusters must not be treated as interchangeable.
	e := quality.NewEvaluator(blockTable(t, 6, 2))
	res, err := NewExhaustive().Search(nil, e, Spec{Sizes: []int{2, 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Size(0) != 2 || res.Best.Size(1) != 4 {
		t.Fatalf("sizes not honored: %d/%d", res.Best.Size(0), res.Best.Size(1))
	}
}

func TestExhaustiveLimit(t *testing.T) {
	e := quality.NewEvaluator(blockTable(t, 12, 3))
	x := &Exhaustive{Limit: 5}
	if _, err := x.Search(nil, e, spec(t, 12, 3), nil); err == nil {
		t.Fatal("limit not enforced")
	}
}

func TestGreedyDescends(t *testing.T) {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(31)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := evalFor(t, net)
	sp := spec(t, 16, 4)
	g, err := NewGreedy().Search(nil, e, sp, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Greedy's local minimum admits no improving swap.
	p := g.Best
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			if p.Cluster(a) == p.Cluster(b) {
				continue
			}
			if e.SwapDelta(p, a, b) < -1e-9 {
				t.Fatalf("greedy result improvable by swapping %d,%d", a, b)
			}
		}
	}
}

func TestAnnealImprovesOverStart(t *testing.T) {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(41)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := evalFor(t, net)
	sp := spec(t, 16, 4)
	rng := rand.New(rand.NewSource(2))
	start, err := mapping.Random(16, 4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewAnneal().Search(nil, e, sp, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestIntraSum > e.IntraSum(start) {
		t.Fatalf("annealing (%v) worse than its own start (%v)", res.BestIntraSum, e.IntraSum(start))
	}
	if res.Evaluations == 0 {
		t.Fatal("no evaluations recorded")
	}
}

func TestGeneticPreservesSpecSizes(t *testing.T) {
	e := quality.NewEvaluator(blockTable(t, 12, 3))
	res, err := NewGenetic().Search(nil, e, Spec{Sizes: []int{2, 4, 6}}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Size(0) != 2 || res.Best.Size(1) != 4 || res.Best.Size(2) != 6 {
		t.Fatal("genetic broke the cluster sizes")
	}
}

func TestOrderCrossoverIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		a := rng.Perm(10)
		b := rng.Perm(10)
		c := orderCrossover(a, b, rng)
		seen := make([]bool, 10)
		for _, g := range c {
			if g < 0 || g >= 10 || seen[g] {
				t.Fatalf("trial %d: child %v is not a permutation", trial, c)
			}
			seen[g] = true
		}
	}
}

func TestRandomSampleMultipleDraws(t *testing.T) {
	e := quality.NewEvaluator(blockTable(t, 8, 2))
	sp := spec(t, 8, 2)
	one, err := (&RandomSample{Samples: 1}).Search(nil, e, sp, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	many, err := (&RandomSample{Samples: 500}).Search(nil, e, sp, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if many.BestIntraSum > one.BestIntraSum {
		t.Fatal("500 draws worse than 1 draw with the same seed prefix")
	}
	if many.Evaluations != 500 {
		t.Fatalf("Evaluations = %d, want 500", many.Evaluations)
	}
}

// TestParallelTabuDeterministicAndGood: searches run at once on one
// evaluator agree with each other for a fixed seed, and reach the exact
// optimum on this 16-switch instance.
func TestParallelTabuDeterministicAndGood(t *testing.T) {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(66)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := evalFor(t, net)
	sp := spec(t, 16, 4)
	rs := concurrentSearches(t, 2, e, sp, 9)
	r1, r2 := rs[0], rs[1]
	if r1.BestIntraSum != r2.BestIntraSum || !r1.Best.Canonical().Equal(r2.Best.Canonical()) {
		t.Fatal("concurrent tabu nondeterministic for fixed seed")
	}
	opt, err := NewExhaustive().Search(nil, e, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.BestIntraSum-opt.BestIntraSum) > 1e-9 {
		t.Fatalf("tabu best %v != exact optimum %v", r1.BestIntraSum, opt.BestIntraSum)
	}
	if r1.Evaluations == 0 {
		t.Fatal("tabu run lost its cost counters")
	}
}

func TestTabuFindsRingClusters(t *testing.T) {
	// Figure 4: on the designed 4-rings-of-6 network, the search must
	// recover the rings as clusters.
	net, err := topology.InterconnectedRings(4, 6, 1, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := evalFor(t, net)
	sp := spec(t, 24, 4)
	res, err := NewTabu().Search(nil, e, sp, rand.New(rand.NewSource(2020)))
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, 24)
	for r, ring := range topology.RingClusters(4, 6) {
		for _, s := range ring {
			assign[s] = r
		}
	}
	truth, err := mapping.New(assign, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Canonical().Equal(truth.Canonical()) {
		t.Fatalf("tabu partition %v does not match the rings %v (intra %v vs %v)",
			res.Best, truth, res.BestIntraSum, e.IntraSum(truth))
	}
}
