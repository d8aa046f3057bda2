package search

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"commsched/internal/mapping"
	"commsched/internal/quality"
	"commsched/internal/topology"
)

// referenceExhaustive is plain enumeration: Exhaustive's depth-first
// order and label-symmetry breaking, pruned only on the cost committed so
// far. prefix fixes the clusters of switches 0..len(prefix)-1, and the
// result is the best completion of that placement.
func referenceExhaustive(e *quality.Evaluator, spec Spec, prefix []int) *Result {
	n, m := spec.N(), spec.M()
	res := &Result{}
	assign := make([]int, n)
	remaining := slices.Clone(spec.Sizes)
	add := func(s, c int) float64 {
		sum := 0.0
		for w := 0; w < s; w++ {
			if assign[w] == c {
				sum += e.PairSquared(s, w)
			}
		}
		return sum
	}
	committed := 0.0
	for s, c := range prefix {
		committed += add(s, c)
		assign[s] = c
		remaining[c]--
	}
	var rec func(s int, cost float64)
	rec = func(s int, cost float64) {
		if res.Best != nil && cost >= res.BestIntraSum {
			return
		}
		if s == n {
			res.Iterations++
			if res.Best == nil || cost < res.BestIntraSum {
				res.Best, _ = mapping.New(assign, m) // a complete placement fills every cluster
				res.BestIntraSum = cost
			}
			return
		}
		openedEmpty := map[int]bool{}
		for c := 0; c < m; c++ {
			if remaining[c] == 0 {
				continue
			}
			if remaining[c] == spec.Sizes[c] {
				if openedEmpty[spec.Sizes[c]] {
					continue
				}
				openedEmpty[spec.Sizes[c]] = true
			}
			res.Evaluations++
			a := add(s, c)
			assign[s] = c
			remaining[c]--
			rec(s+1, cost+a)
			remaining[c]++
		}
	}
	rec(len(prefix), committed)
	return finishResult(e, res)
}

// exactInstance is one network and cluster spec the exact engine is
// checked on.
type exactInstance struct {
	name string
	e    *quality.Evaluator
	spec Spec
	// aStar is what A*, the bounded engine this one replaced, priced on
	// the instance (0 = not recorded).
	aStar int
}

func irregularInstance(t testing.TB, sizes []int, seed int64) exactInstance {
	t.Helper()
	n := Spec{Sizes: sizes}.N()
	net, err := topology.RandomIrregular(n, 3, rand.New(rand.NewSource(seed)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return exactInstance{name: fmt.Sprintf("n=%d/sizes=%v/seed=%d", n, sizes, seed), e: evalFor(t, net), spec: Spec{Sizes: sizes}}
}

func balanced(n, m int) []int {
	sizes := make([]int, m)
	for c := range sizes {
		sizes[c] = n / m
	}
	return sizes
}

// exactInstances: balanced networks of 8–16 switches in 2–4 clusters over
// three seeds, one of 20 switches, six unequal specs, and the instances of
// the claims table (12 switches, seed 500) and examples/heuristics (16,
// seed 2000).
func exactInstances(t testing.TB) []exactInstance {
	var out []exactInstance
	for _, n := range []int{8, 12, 16} {
		for _, m := range []int{2, 3, 4} {
			if n%m != 0 {
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				out = append(out, irregularInstance(t, balanced(n, m), seed*100+int64(n+m)))
			}
		}
	}
	out = append(out, irregularInstance(t, balanced(20, 4), 20))
	for i, sizes := range [][]int{{2, 4}, {3, 5, 8}, {4, 4, 2, 2}, {6, 3, 3}, {5, 5, 2, 4}, {8, 4, 2, 2}} {
		out = append(out, irregularInstance(t, sizes, int64(40+i)))
	}
	claims := irregularInstance(t, balanced(12, 4), 500)
	claims.aStar = 1148
	example := irregularInstance(t, balanced(16, 4), 2000)
	example.aStar = 33850
	return append(out, claims, example)
}

// TestExhaustiveMatchesReference: the bound cuts only subtrees that hold
// no strictly better partition, so the engine returns plain enumeration's
// optimum bit for bit, and from 12 switches up it prices strictly fewer
// candidates (and fewer than A* did where that was recorded).
func TestExhaustiveMatchesReference(t *testing.T) {
	for _, in := range exactInstances(t) {
		got, err := NewExhaustive().Search(nil, in.e, in.spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		want := referenceExhaustive(in.e, in.spec, nil)
		if !got.Best.Equal(want.Best) || got.BestIntraSum != want.BestIntraSum {
			t.Errorf("%s: best %v (%v), reference %v (%v)", in.name, got.Best, got.BestIntraSum, want.Best, want.BestIntraSum)
		}
		if in.spec.N() >= 12 && got.Evaluations >= want.Evaluations {
			t.Errorf("%s: priced %d candidates, reference %d", in.name, got.Evaluations, want.Evaluations)
		}
		if in.aStar > 0 && got.Evaluations >= in.aStar {
			t.Errorf("%s: priced %d candidates, A* priced %d", in.name, got.Evaluations, in.aStar)
		}
		if got.Iterations > want.Iterations {
			t.Errorf("%s: reached %d partitions, reference %d", in.name, got.Iterations, want.Iterations)
		}
	}
}

// TestExhaustiveBoundAdmissible: at seeded random partial placements, the
// committed cost plus the bound never exceeds the cost of the best
// completion.
func TestExhaustiveBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sizes := range [][]int{{4, 4}, {3, 3, 4}, {5, 3, 2}, {2, 2, 2, 2, 2}, {4, 4, 4}, {6, 2, 2, 2}} {
		for seed := int64(1); seed <= 3; seed++ {
			in := irregularInstance(t, sizes, seed)
			n := in.spec.N()
			for trial := 0; trial < 8; trial++ {
				p, err := mapping.RandomSizes(sizes, rng)
				if err != nil {
					t.Fatal(err)
				}
				d := rng.Intn(n + 1)
				prefix := p.Assign()[:d]
				b := newBranch(in.e, in.spec)
				committed := 0.0
				for s, c := range prefix {
					committed += b.place(s, c)
				}
				lb := b.bound(d)
				best := referenceExhaustive(in.e, in.spec, prefix).BestIntraSum
				if committed+lb > best*(1+1e-12) {
					t.Fatalf("%s, prefix %v: committed %v + bound %v > best completion %v", in.name, prefix, committed, lb, best)
				}
			}
		}
	}
}

// TestExhaustiveRejectsBadSpec: a spec that does not cover the table is
// refused.
func TestExhaustiveRejectsBadSpec(t *testing.T) {
	e := quality.NewEvaluator(blockTable(t, 6, 2))
	if _, err := NewExhaustive().Search(nil, e, Spec{Sizes: []int{3}}, nil); err == nil {
		t.Fatal("bad spec accepted")
	}
}

// The three tests below keep the names they had while A* was a separate
// engine. Its idea, cutting subtrees on a lower bound, is now Exhaustive's,
// and they check the same properties on the same instances.

// TestAStarMatchesExhaustive: on 12-switch, 3-cluster networks of seeds
// 1–3 the bounded engine returns plain enumeration's optimum bit for bit.
func TestAStarMatchesExhaustive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		in := irregularInstance(t, balanced(12, 3), seed)
		got, err := NewExhaustive().Search(nil, in.e, in.spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceExhaustive(in.e, in.spec, nil)
		if !got.Best.Equal(want.Best) || got.BestIntraSum != want.BestIntraSum {
			t.Fatalf("seed %d: best %v (%v), reference %v (%v)", seed, got.Best, got.BestIntraSum, want.Best, want.BestIntraSum)
		}
	}
}

// TestAStarExpandsFewerNodesThanExhaustive: on the 12-switch, 3-cluster
// network of seed 7 the bound prices fewer candidates than plain
// enumeration (3,150).
func TestAStarExpandsFewerNodesThanExhaustive(t *testing.T) {
	in := irregularInstance(t, balanced(12, 3), 7)
	got, err := NewExhaustive().Search(nil, in.e, in.spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceExhaustive(in.e, in.spec, nil)
	if got.Evaluations >= want.Evaluations {
		t.Fatalf("priced %d candidates, reference %d — bound pruning ineffective", got.Evaluations, want.Evaluations)
	}
}

// TestAStarUnequalSizes: with unequal clusters the bound keeps each
// cluster's size and plain enumeration's optimum, whichever cluster is
// the small one.
func TestAStarUnequalSizes(t *testing.T) {
	e := quality.NewEvaluator(blockTable(t, 6, 2))
	for _, sizes := range [][]int{{2, 4}, {4, 2}} {
		sp := Spec{Sizes: sizes}
		got, err := NewExhaustive().Search(nil, e, sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Best.Size(0) != sizes[0] || got.Best.Size(1) != sizes[1] {
			t.Fatalf("sizes %v: got %d/%d", sizes, got.Best.Size(0), got.Best.Size(1))
		}
		want := referenceExhaustive(e, sp, nil)
		if !got.Best.Equal(want.Best) || got.BestIntraSum != want.BestIntraSum {
			t.Fatalf("sizes %v: best %v (%v), reference %v (%v)", sizes, got.Best, got.BestIntraSum, want.Best, want.BestIntraSum)
		}
	}
}
