package search

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"commsched/internal/distance"
	"commsched/internal/mapping"
	"commsched/internal/quality"
	"commsched/internal/routing"
	"commsched/internal/topology"
)

// bigEvaluator builds an evaluator on a 16-switch irregular instance —
// large enough that every searcher runs for many iterations.
func bigEvaluator(t *testing.T) *quality.Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(2000))
	net, err := topology.RandomIrregular(16, 3, rng, topology.Config{})
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
	return quality.NewEvaluator(tab)
}

// TestSearchersHonorCancelledContext verifies every Searcher returns
// ctx.Err() when handed an already-cancelled context.
func TestSearchersHonorCancelledContext(t *testing.T) {
	e := bigEvaluator(t)
	sp, err := BalancedSpec(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	searchers := []Searcher{
		NewTabu(),
		NewAnneal(),
		NewGreedy(),
		NewGenetic(),
		NewGSA(),
		&RandomSample{Samples: 100000},
		NewExhaustive(),
	}
	for _, s := range searchers {
		_, err := s.Search(ctx, e, sp, rand.New(rand.NewSource(1)))
		if err == nil {
			t.Errorf("%s: cancelled context produced a result", s.Name())
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not wrap context.Canceled", s.Name(), err)
		}
	}
}

// TestSearchersNilContext verifies nil is accepted as Background.
func TestSearchersNilContext(t *testing.T) {
	e := bigEvaluator(t)
	sp, err := BalancedSpec(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTabu().Search(nil, e, sp, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
}

func TestTabuSearchFromWarmStart(t *testing.T) {
	e := bigEvaluator(t)
	sp, err := BalancedSpec(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	cold, err := NewTabu().Search(nil, e, sp, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-start from the cold optimum: must not get worse, and must not
	// mutate the start partition.
	start := cold.Best.Clone()
	warm, err := NewTabu().SearchFrom(nil, e, sp, rand.New(rand.NewSource(1)), start)
	if err != nil {
		t.Fatal(err)
	}
	if !start.Equal(cold.Best) {
		t.Fatal("SearchFrom mutated its start partition")
	}
	if warm.BestIntraSum > cold.BestIntraSum+valueEpsilon {
		t.Fatalf("warm start worsened the objective: %v > %v", warm.BestIntraSum, cold.BestIntraSum)
	}
	// From a random start it must descend to a local minimum at least as
	// good as the start.
	randStart, err := mapping.RandomSizes(sp.Sizes, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	startVal := e.IntraSum(randStart)
	res, err := NewTabu().SearchFrom(nil, e, sp, rand.New(rand.NewSource(2)), randStart)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestIntraSum > startVal+valueEpsilon {
		t.Fatalf("SearchFrom worsened a random start: %v > %v", res.BestIntraSum, startVal)
	}
}

func TestTabuSearchFromValidation(t *testing.T) {
	e := bigEvaluator(t)
	sp, err := BalancedSpec(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTabu()
	if _, err := tb.SearchFrom(nil, e, sp, rand.New(rand.NewSource(1)), nil); err == nil {
		t.Fatal("nil start accepted")
	}
	wrong, err := mapping.RandomSizes([]int{8, 8}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.SearchFrom(nil, e, sp, rand.New(rand.NewSource(1)), wrong); err == nil {
		t.Fatal("mismatched start accepted")
	}
	unbalanced, err := mapping.RandomSizes([]int{2, 2, 6, 6}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.SearchFrom(nil, e, sp, rand.New(rand.NewSource(1)), unbalanced); err == nil {
		t.Fatal("size-mismatched start accepted")
	}
}
