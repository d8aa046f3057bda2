package search

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"commsched/internal/mapping"
	"commsched/internal/topology"
)

// Determinism contract of Tabu: for one rng state, the sequential and
// parallel modes must return the exact same Result — not merely a best
// value within tolerance. Both modes pre-draw one seed per restart and
// run every restart fully independently, so scheduling and worker count
// cannot influence the outcome.

// tabuResultsEqual asserts exact field-for-field agreement of two
// results (the trace is exempt: parallel mode rejects RecordTrace).
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

// TestTabuSerialParallelIdentical: same seed, serial vs parallel — the
// whole Result must match exactly on several instances and cluster
// shapes.
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
			par := NewTabu()
			par.Parallel = true

			rs, err := serial.Search(nil, e, sp, rand.New(rand.NewSource(seed*71)))
			if err != nil {
				t.Fatal(err)
			}
			rp, err := par.Search(nil, e, sp, rand.New(rand.NewSource(seed*71)))
			if err != nil {
				t.Fatal(err)
			}
			tabuResultsEqual(t, "serial vs parallel", rs, rp)

			// Same mode, same seed, run twice: repeatable.
			rs2, err := serial.Search(nil, e, sp, rand.New(rand.NewSource(seed*71)))
			if err != nil {
				t.Fatal(err)
			}
			tabuResultsEqual(t, "serial repeat", rs, rs2)
		})
	}
}

// TestTabuParallelWorkerCountIndependent: the parallel result must not
// depend on how many workers the runtime grants.
func TestTabuParallelWorkerCountIndependent(t *testing.T) {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(3)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := evalFor(t, net)
	sp := spec(t, 16, 4)
	par := NewTabu()
	par.Parallel = true

	run := func() *Result {
		r, err := par.Search(nil, e, sp, rand.New(rand.NewSource(17)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run()
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	single := run()
	runtime.GOMAXPROCS(old)
	tabuResultsEqual(t, "GOMAXPROCS independence", base, single)
}

// TestTabuObjectivePathMatchesSearch: SearchObjective over the plain
// evaluator must agree exactly with Search (minus the F normalization
// Search adds), in both modes — i.e. the generic-objective entry point
// runs the identical procedure.
func TestTabuObjectivePathMatchesSearch(t *testing.T) {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(11)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := evalFor(t, net)
	sp := spec(t, 16, 4)
	for _, parallel := range []bool{false, true} {
		tb := NewTabu()
		tb.Parallel = parallel
		rs, err := tb.Search(nil, e, sp, rand.New(rand.NewSource(23)))
		if err != nil {
			t.Fatal(err)
		}
		ro, err := tb.SearchObjective(nil, e, sp, rand.New(rand.NewSource(23)))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("objective path (parallel=%v)", parallel)
		if rs.BestIntraSum != ro.BestIntraSum {
			t.Errorf("%s: BestIntraSum %v vs %v", label, rs.BestIntraSum, ro.BestIntraSum)
		}
		if !rs.Best.Canonical().Equal(ro.Best.Canonical()) {
			t.Errorf("%s: best partitions differ", label)
		}
		if rs.Evaluations != ro.Evaluations || rs.Iterations != ro.Iterations {
			t.Errorf("%s: counters differ: %d/%d vs %d/%d",
				label, rs.Evaluations, rs.Iterations, ro.Evaluations, ro.Iterations)
		}
	}
}

// panickyObjective delegates to an Objective but panics on the panicAt-th
// IntraSum call — the start of one restart.
type panickyObjective struct {
	Objective
	calls   atomic.Int64
	panicAt int64
}

func (o *panickyObjective) IntraSum(p *mapping.Partition) float64 {
	if o.calls.Add(1) == o.panicAt {
		panic("objective failed")
	}
	return o.Objective.IntraSum(p)
}

// TestTabuParallelRestartPanicIsError: a panic inside one parallel
// restart comes back as the search's error instead of crashing the
// process.
func TestTabuParallelRestartPanicIsError(t *testing.T) {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(3)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	obj := &panickyObjective{Objective: evalFor(t, net), panicAt: 3}
	tb := NewTabu()
	tb.Parallel = true
	res, err := tb.SearchObjective(nil, obj, spec(t, 16, 4), rand.New(rand.NewSource(17)))
	if err == nil || !strings.Contains(err.Error(), "objective failed") {
		t.Fatalf("SearchObjective = %v, %v; want the restart's panic as an error", res, err)
	}
}
