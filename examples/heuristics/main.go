// Heuristics: the searcher shoot-out behind the paper's Section 2 claim —
// "with [Tabu search] we obtained the best results … the same or better
// clustering coefficients than other methods with higher computational
// cost."
//
// It runs Tabu, steepest-descent greedy, Simulated Annealing, a Genetic
// Algorithm, Genetic Simulated Annealing, and a random-sampling baseline
// on the same 16-switch instance, and checks them against the optimum
// that the exact branch-and-bound search (search.Exhaustive) proves over
// all 2,627,625 partitions.
//
// Run with: go run ./examples/heuristics
package main

import (
	"fmt"
	"log"
	"math/rand"

	"commsched/internal/core"
	"commsched/internal/search"
	"commsched/internal/topology"
)

func main() {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(2000)), topology.Config{})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.NewSystem(net, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	spec, err := search.BalancedSpec(16, 4)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("exact search over all 16!/(4!^4 4!) = 2,627,625 partitions…")
	opt, err := search.NewExhaustive().Search(nil, sys.Evaluator(), spec, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("global optimum: F_G = %.6f  %s  (proved pricing %d candidates)\n\n", opt.BestF, opt.Best, opt.Evaluations)

	searchers := []search.Searcher{
		search.NewTabu(),
		search.NewGreedy(),
		search.NewAnneal(),
		search.NewGenetic(),
		search.NewGSA(),
		&search.RandomSample{Samples: 1000},
	}
	fmt.Printf("%-28s %-12s %-14s %s\n", "heuristic", "best F_G", "evaluations", "optimal?")
	for _, s := range searchers {
		res, err := s.Search(nil, sys.Evaluator(), spec, rand.New(rand.NewSource(42)))
		if err != nil {
			log.Fatal(err)
		}
		mark := ""
		if res.BestF <= opt.BestF+1e-9 {
			mark = "yes"
		}
		fmt.Printf("%-28s %-12.6f %-14d %s\n", s.Name(), res.BestF, res.Evaluations, mark)
	}
}
