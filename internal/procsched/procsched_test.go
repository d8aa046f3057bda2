package procsched

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"commsched/internal/distance"
	"commsched/internal/mapping"
	"commsched/internal/quality"
	"commsched/internal/routing"
	"commsched/internal/search"
	"commsched/internal/topology"
)

// fixture builds a problem on a random irregular network.
func fixture(t *testing.T, switches int, clusterOf []int, slots int, topoSeed int64) *Problem {
	t.Helper()
	net, err := topology.RandomIrregular(switches, 3, rand.New(rand.NewSource(topoSeed)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := distance.Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewProblem(net, tab, clusterOf, slots)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// balancedClusters returns p processes split into m equal clusters.
func balancedClusters(p, m int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = i * m / p
	}
	return out
}

// tabu returns the process-level Tabu with the given restarts and
// iterations per restart.
func tabu(restarts, iterations int) *search.Tabu {
	t := NewTabu()
	t.Restarts, t.MaxIterations = restarts, iterations
	return t
}

// mustSearch runs Search from a fresh rng with the given seed.
func mustSearch(t *testing.T, pr *Problem, tb *search.Tabu, seed int64) *Result {
	t.Helper()
	res, err := Search(context.Background(), pr, tb, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// randomSlots draws a random slot partition of the problem: items
// [0,Processes()) are processes, the rest free slots.
func randomSlots(t *testing.T, pr *Problem, rng *rand.Rand) *mapping.Partition {
	t.Helper()
	part, err := mapping.RandomSizes(pr.slotSpec().Sizes, rng)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func TestNewProblemValidation(t *testing.T) {
	net, err := topology.RandomIrregular(8, 3, rand.New(rand.NewSource(1)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := distance.Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblem(net, tab, nil, 1); err == nil {
		t.Fatal("empty process list accepted")
	}
	if _, err := NewProblem(net, tab, []int{0}, 0); err == nil {
		t.Fatal("zero slots accepted")
	}
	if _, err := NewProblem(net, tab, []int{-1}, 1); err == nil {
		t.Fatal("negative cluster accepted")
	}
	if _, err := NewProblem(net, tab, []int{0, 2}, 1); err == nil {
		t.Fatal("non-contiguous clusters accepted")
	}
	if _, err := NewProblem(net, tab, make([]int, 100), 1); err == nil {
		t.Fatal("over-capacity process count accepted (32 hosts)")
	}
	// Mismatched table.
	other, err := topology.RandomIrregular(12, 3, rand.New(rand.NewSource(2)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblem(other, tab, []int{0, 0}, 1); err == nil {
		t.Fatal("table/network mismatch accepted")
	}
}

func TestNewAssignmentValidation(t *testing.T) {
	pr := fixture(t, 8, balancedClusters(16, 4), 1, 3)
	good := make([]int, 16)
	for i := range good {
		good[i] = i // hosts 0..15 of 32
	}
	if _, err := pr.NewAssignment(good); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
	if _, err := pr.NewAssignment(good[:5]); err == nil {
		t.Fatal("short assignment accepted")
	}
	bad := append([]int(nil), good...)
	bad[0] = 99
	if _, err := pr.NewAssignment(bad); err == nil {
		t.Fatal("out-of-range host accepted")
	}
	dup := append([]int(nil), good...)
	dup[1] = 0 // two processes on host 0 with 1 slot
	if _, err := pr.NewAssignment(dup); err == nil {
		t.Fatal("over-capacity host accepted")
	}
}

func TestRandomAssignmentRespectsCapacity(t *testing.T) {
	pr := fixture(t, 8, balancedClusters(60, 4), 2, 4) // 64 slots
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		a := pr.RandomAssignment(rng)
		for h := 0; h < pr.Net.Hosts(); h++ {
			if a.Load(h) > 2 {
				t.Fatalf("host %d overloaded: %d", h, a.Load(h))
			}
		}
	}
}

func TestCostZeroWhenColocated(t *testing.T) {
	// All processes of each cluster on the same switch => zero cost.
	pr := fixture(t, 8, balancedClusters(32, 8), 1, 6)
	hostOf := make([]int, 32)
	for p := range hostOf {
		hostOf[p] = p // process p on host p: switch p/4 == cluster p/4
	}
	a, err := pr.NewAssignment(hostOf)
	if err != nil {
		t.Fatal(err)
	}
	if c := pr.Cost(a); c != 0 {
		t.Fatalf("fully co-located cost = %v, want 0", c)
	}
}

func TestSwapAndMoveDeltaMatchRecompute(t *testing.T) {
	pr := fixture(t, 8, balancedClusters(24, 4), 2, 7) // 64 slots, 40 free
	obj := slots{pr}
	rng := rand.New(rand.NewSource(8))
	part := randomSlots(t, pr, rng)
	n := part.N()
	swaps, moves := 0, 0
	for trial := 0; trial < 400; trial++ {
		u, v := rng.Intn(n), rng.Intn(n)
		delta := obj.SwapDelta(part, u, v)
		if u >= pr.Processes() && v >= pr.Processes() {
			if !math.IsInf(delta, 1) {
				t.Fatalf("free slots %d<->%d: delta %v, want +Inf", u, v, delta)
			}
			continue
		}
		if u >= pr.Processes() || v >= pr.Processes() {
			moves++
		} else {
			swaps++
		}
		before := obj.IntraSum(part)
		part.Swap(u, v)
		if after := obj.IntraSum(part); math.Abs(after-before-delta) > 1e-9 {
			t.Fatalf("trial %d, swap %d<->%d: delta %v, recompute %v", trial, u, v, delta, after-before)
		}
	}
	if swaps == 0 || moves == 0 {
		t.Fatalf("trials covered %d process swaps and %d moves to free slots", swaps, moves)
	}
}

func TestTabuBeatsRandom(t *testing.T) {
	pr := fixture(t, 12, balancedClusters(48, 4), 1, 10)
	res := mustSearch(t, pr, tabu(3, 30), 11)
	randCost := pr.Cost(pr.RandomAssignment(rand.New(rand.NewSource(99))))
	if res.BestCost >= randCost {
		t.Fatalf("tabu cost %v not below random %v", res.BestCost, randCost)
	}
	if res.Evaluations == 0 || res.Iterations == 0 {
		t.Fatal("missing cost counters")
	}
	// Capacity respected in the final assignment.
	for h := 0; h < pr.Net.Hosts(); h++ {
		if res.Best.Load(h) > pr.SlotsPerHost {
			t.Fatalf("host %d overloaded in result", h)
		}
	}
}

func TestTabuMatchesSwitchLevelOnAlignedInstance(t *testing.T) {
	// With one process per processor and cluster sizes equal to whole
	// switches, the process-level optimum corresponds to a switch-aligned
	// placement: hosts-per-switch² × the switch-level pair cost. The
	// process search must reach a cost <= the aligned cost built from the
	// switch-level Tabu result.
	net, err := topology.RandomIrregular(8, 3, rand.New(rand.NewSource(12)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := distance.Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	// 32 processes in 4 clusters of 8 = 2 switches each.
	pr, err := NewProblem(net, tab, balancedClusters(32, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Switch-level result.
	ev := quality.NewEvaluator(tab)
	spec, err := search.BalancedSpec(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := search.NewTabu().Search(nil, ev, spec, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	// Build the aligned process placement from the switch partition.
	hostOf := make([]int, 32)
	next := map[int]int{} // cluster -> next process slot index
	byCluster := map[int][]int{}
	for c := 0; c < 4; c++ {
		byCluster[c] = sw.Best.Members(c)
	}
	for p := 0; p < 32; p++ {
		c := pr.ClusterOf[p]
		idx := next[c]
		next[c]++
		sw := byCluster[c][idx/4] // 4 hosts per switch
		hostOf[p] = net.SwitchHosts(sw)[idx%4]
	}
	aligned, err := pr.NewAssignment(hostOf)
	if err != nil {
		t.Fatal(err)
	}
	alignedCost := pr.Cost(aligned)
	// Aligned cost relates to the switch objective: each inter-switch
	// same-cluster pair contributes 4×4 process pairs.
	if math.Abs(alignedCost-16*sw.BestIntraSum) > 1e-6 {
		t.Fatalf("aligned cost %v != 16 × switch objective %v", alignedCost, 16*sw.BestIntraSum)
	}
	res := mustSearch(t, pr, tabu(6, 60), 14)
	if res.BestCost > alignedCost+1e-9 {
		t.Fatalf("process-level tabu (%v) worse than the aligned switch-level solution (%v)",
			res.BestCost, alignedCost)
	}
}

func TestTabuMultiprogrammedConsolidates(t *testing.T) {
	// With 2 slots per host, a cluster of 8 processes fits on one switch
	// (4 hosts × 2). The search should reach zero (fully co-located) cost
	// on a small instance.
	pr := fixture(t, 8, balancedClusters(16, 2), 2, 15)
	res := mustSearch(t, pr, tabu(8, 80), 16)
	if res.BestCost > 1e-9 {
		t.Fatalf("2 clusters × 8 procs with 2 slots/host: cost %v, want 0 (one switch per cluster)", res.BestCost)
	}
}

func TestTabuDeterministicPerSeed(t *testing.T) {
	pr := fixture(t, 8, balancedClusters(24, 3), 1, 17)
	a := mustSearch(t, pr, tabu(2, 20), 3)
	b := mustSearch(t, pr, tabu(2, 20), 3)
	if a.BestCost != b.BestCost {
		t.Fatalf("same seed, different costs: %v vs %v", a.BestCost, b.BestCost)
	}
}

// Property: the cost is invariant under moving a process within its
// switch (to another process's slot or a free one there).
func TestQuickCostInvariants(t *testing.T) {
	pr := fixture(t, 8, balancedClusters(24, 4), 2, 18)
	obj := slots{pr}
	hps := pr.Net.HostsPerSwitch()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		part := randomSlots(t, pr, rng)
		c := obj.IntraSum(part)
		if c < 0 {
			return false
		}
		u, v := rng.Intn(24), rng.Intn(part.N())
		if part.Cluster(u)/hps == part.Cluster(v)/hps && obj.SwapDelta(part, u, v) != 0 {
			return false
		}
		// Swap twice restores the cost.
		part.Swap(u, v)
		part.Swap(u, v)
		return math.Abs(obj.IntraSum(part)-c) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The mapping package's aligned expansion and procsched must agree on the
// semantics of "cluster c on switches S": expanding a partition into a
// process map yields a zero-extra-cost assignment relative to the aligned
// formula.
func TestProcessMapAlignment(t *testing.T) {
	net, err := topology.RandomIrregular(8, 3, rand.New(rand.NewSource(19)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := distance.Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	part, err := mapping.Balanced(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := mapping.NewProcessMap(net, part)
	if err != nil {
		t.Fatal(err)
	}
	clusterOf := make([]int, net.Hosts())
	hostOf := make([]int, net.Hosts())
	for h := 0; h < net.Hosts(); h++ {
		clusterOf[h] = pm.HostCluster(h)
		hostOf[h] = h
	}
	pr, err := NewProblem(net, tab, clusterOf, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := pr.NewAssignment(hostOf)
	if err != nil {
		t.Fatal(err)
	}
	ev := quality.NewEvaluator(tab)
	if math.Abs(pr.Cost(a)-16*ev.IntraSum(part)) > 1e-6 {
		t.Fatalf("process cost %v != 16 × switch IntraSum %v", pr.Cost(a), 16*ev.IntraSum(part))
	}
}

func TestTabuContextCancelled(t *testing.T) {
	pr := fixture(t, 8, balancedClusters(16, 4), 4, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, pr, NewTabu(), rand.New(rand.NewSource(1))); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
