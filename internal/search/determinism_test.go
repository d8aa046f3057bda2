package search

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"commsched/internal/quality"
	"commsched/internal/topology"
)

// Determinism contract of Tabu: for one rng state, a search returns the
// exact same Result — not merely a best value within tolerance — whether
// it runs alone or beside other searches on the same evaluator. Every
// restart is drawn from one pre-drawn seed and run fully independently.

// tabuResultsEqual asserts exact field-for-field agreement of two
// results (the trace is exempt).
func tabuResultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.BestIntraSum != b.BestIntraSum {
		t.Errorf("%s: BestIntraSum %v vs %v", label, a.BestIntraSum, b.BestIntraSum)
	}
	if a.BestF != b.BestF {
		t.Errorf("%s: BestF %v vs %v", label, a.BestF, b.BestF)
	}
	if a.Evaluations != b.Evaluations {
		t.Errorf("%s: Evaluations %d vs %d", label, a.Evaluations, b.Evaluations)
	}
	if a.Iterations != b.Iterations {
		t.Errorf("%s: Iterations %d vs %d", label, a.Iterations, b.Iterations)
	}
	if !a.Best.Canonical().Equal(b.Best.Canonical()) {
		t.Errorf("%s: best partitions differ: %v vs %v", label, a.Best, b.Best)
	}
}

// concurrentSearches runs k copies of the same search at once on one
// evaluator, as the service does with a cached system, and returns their
// results.
func concurrentSearches(t *testing.T, k int, e *quality.Evaluator, sp Spec, seed int64) []*Result {
	t.Helper()
	out := make([]*Result, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = NewTabu().Search(nil, e, sp, rand.New(rand.NewSource(seed)))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestTabuSerialParallelIdentical: same seed, one search alone vs several
// at once on the same evaluator — the whole Result must match exactly on
// several instances, and a repeat run must too.
func TestTabuSerialParallelIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(seed)), topology.Config{})
			if err != nil {
				t.Fatal(err)
			}
			e := evalFor(t, net)
			sp := spec(t, 16, 4)

			serial := NewTabu()
			rs, err := serial.Search(nil, e, sp, rand.New(rand.NewSource(seed*71)))
			if err != nil {
				t.Fatal(err)
			}
			for _, rp := range concurrentSearches(t, 3, e, sp, seed*71) {
				tabuResultsEqual(t, "alone vs concurrent", rs, rp)
			}

			// Same seed, run twice: repeatable.
			rs2, err := serial.Search(nil, e, sp, rand.New(rand.NewSource(seed*71)))
			if err != nil {
				t.Fatal(err)
			}
			tabuResultsEqual(t, "serial repeat", rs, rs2)
		})
	}
}

// TestTabuObjectivePathMatchesSearch: SearchObjective over the plain
// evaluator must agree exactly with Search (minus the F normalization
// Search adds) — i.e. the generic-objective entry point runs the
// identical procedure.
func TestTabuObjectivePathMatchesSearch(t *testing.T) {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(11)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := evalFor(t, net)
	sp := spec(t, 16, 4)
	tb := NewTabu()
	rs, err := tb.Search(nil, e, sp, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	ro, err := tb.SearchObjective(nil, e, sp, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	if rs.BestIntraSum != ro.BestIntraSum {
		t.Errorf("objective path: BestIntraSum %v vs %v", rs.BestIntraSum, ro.BestIntraSum)
	}
	if !rs.Best.Canonical().Equal(ro.Best.Canonical()) {
		t.Errorf("objective path: best partitions differ")
	}
	if rs.Evaluations != ro.Evaluations || rs.Iterations != ro.Iterations {
		t.Errorf("objective path: counters differ: %d/%d vs %d/%d",
			rs.Evaluations, rs.Iterations, ro.Evaluations, ro.Iterations)
	}
}
