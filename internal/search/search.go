// Package search implements the heuristic mapping searchers the paper
// studies: the Tabu search variant of Section 4.2 (the paper's chosen
// technique), plus Simulated Annealing, a Genetic Algorithm, Genetic
// Simulated Annealing, steepest-descent greedy, exhaustive enumeration
// (small networks), and a random-sampling baseline.
//
// All searchers minimize the similarity objective: the total squared
// intra-cluster equivalent distance (quality.Evaluator.IntraSum). Because
// swap moves preserve cluster sizes, minimizing IntraSum is equivalent to
// minimizing the paper's F_G and to maximizing the clustering coefficient
// Cc.
package search

import (
	"context"
	"fmt"
	"math/rand"

	"commsched/internal/mapping"
	"commsched/internal/quality"
)

// Spec describes the shape of the wanted partition: the size of each
// switch cluster. The paper's setting is four equal clusters.
type Spec struct {
	Sizes []int
}

// BalancedSpec returns a spec of m equal clusters over n switches.
func BalancedSpec(n, m int) (Spec, error) {
	if m <= 0 || n <= 0 || n%m != 0 {
		return Spec{}, fmt.Errorf("search: cannot split %d switches into %d equal clusters", n, m)
	}
	sizes := make([]int, m)
	for i := range sizes {
		sizes[i] = n / m
	}
	return Spec{Sizes: sizes}, nil
}

// N returns the total number of switches the spec covers.
func (s Spec) N() int {
	n := 0
	for _, x := range s.Sizes {
		n += x
	}
	return n
}

// M returns the number of clusters.
func (s Spec) M() int { return len(s.Sizes) }

// validate checks the spec against an evaluator.
func (s Spec) validate(e *quality.Evaluator) error {
	if len(s.Sizes) == 0 {
		return fmt.Errorf("search: empty spec")
	}
	for c, x := range s.Sizes {
		if x <= 0 {
			return fmt.Errorf("search: cluster %d has non-positive size %d", c, x)
		}
	}
	if s.N() != e.N() {
		return fmt.Errorf("search: spec covers %d switches, table covers %d", s.N(), e.N())
	}
	return nil
}

// randomPartition draws a random partition matching the spec.
func (s Spec) randomPartition(rng *rand.Rand) (*mapping.Partition, error) {
	return mapping.RandomSizes(s.Sizes, rng)
}

// TracePoint is one step of a search trajectory — the data behind the
// paper's Figure 1 (value of F at each Tabu iteration, restarts included).
type TracePoint struct {
	// Iteration is the global iteration counter across restarts.
	Iteration int
	// Restart is the index of the random seed this point belongs to.
	Restart int
	// F is the global similarity function F_G of the current mapping.
	F float64
}

// Result is the outcome of one search run.
type Result struct {
	// Best is the best mapping found.
	Best *mapping.Partition
	// BestIntraSum is the raw objective value of Best.
	BestIntraSum float64
	// BestF is the global similarity F_G of Best.
	BestF float64
	// Trace records the trajectory when the searcher supports it.
	Trace []TracePoint
	// Evaluations counts candidate objective evaluations (full or
	// incremental) — the cost measure used to compare heuristics.
	Evaluations int
	// Iterations counts accepted moves / generations.
	Iterations int
}

// Searcher finds a low-similarity partition for the given spec.
type Searcher interface {
	// Name identifies the heuristic in reports.
	Name() string
	// Search runs the heuristic. Implementations must be deterministic
	// given the evaluator, spec, and rng state, must honor ctx
	// cancellation promptly (returning ctx.Err(), possibly wrapped), and
	// must accept a nil ctx as context.Background().
	Search(ctx context.Context, e *quality.Evaluator, spec Spec, rng *rand.Rand) (*Result, error)
}

// ByName returns a fresh searcher for a heuristic name as commands and
// job specs spell it: tabu, greedy, sa, ga, gsa, random (1000 samples)
// or exhaustive.
func ByName(name string) (Searcher, error) {
	switch name {
	case "tabu":
		return NewTabu(), nil
	case "greedy":
		return NewGreedy(), nil
	case "sa":
		return NewAnneal(), nil
	case "ga":
		return NewGenetic(), nil
	case "gsa":
		return NewGSA(), nil
	case "random":
		return &RandomSample{Samples: 1000}, nil
	case "exhaustive":
		return NewExhaustive(), nil
	default:
		return nil, fmt.Errorf("search: unknown heuristic %q", name)
	}
}

// orBackground normalizes a nil context so searcher internals can call
// ctx.Err() unconditionally.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// finishResult fills the derived fields of a result from its best
// partition.
func finishResult(e *quality.Evaluator, r *Result) *Result {
	r.BestIntraSum = e.IntraSum(r.Best)
	r.BestF = e.Similarity(r.Best)
	return r
}
