package search

import (
	"fmt"
	"math/rand"
	"testing"

	"commsched/internal/distance"
	"commsched/internal/quality"
	"commsched/internal/routing"
	"commsched/internal/topology"
)

// BenchmarkTabuRestart times one Tabu restart with the paper's settings
// (20 iterations, repeat limit 3, tenure 4) on a seeded degree-3 irregular
// network split into 4 clusters. Op i starts from seed i; ns/candidate
// divides the time by Result.Evaluations, the inter-cluster swaps the
// restarts scanned.
func BenchmarkTabuRestart(b *testing.B) {
	for _, n := range []int{16, 48, 96} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, err := topology.RandomIrregular(n, 3, rand.New(rand.NewSource(int64(n))), topology.Config{})
			if err != nil {
				b.Fatal(err)
			}
			ud, err := routing.NewUpDown(net, -1)
			if err != nil {
				b.Fatal(err)
			}
			tab, err := distance.Compute(net, ud)
			if err != nil {
				b.Fatal(err)
			}
			e := quality.NewEvaluator(tab)
			sp, err := BalancedSpec(n, 4)
			if err != nil {
				b.Fatal(err)
			}
			tb := NewTabu()
			tb.Restarts = 1
			candidates := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := tb.Search(nil, e, sp, rand.New(rand.NewSource(int64(i))))
				if err != nil {
					b.Fatal(err)
				}
				candidates += res.Evaluations
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(candidates), "ns/candidate")
		})
	}
}

// BenchmarkExhaustive times one proof of optimality on the instances of
// the claims table (12 switches, topology seed 500) and of
// examples/heuristics (16 switches, seed 2000), 4 balanced clusters each.
// evals/op is Result.Evaluations, the candidates the search priced.
func BenchmarkExhaustive(b *testing.B) {
	for _, c := range []struct {
		n    int
		seed int64
	}{{12, 500}, {16, 2000}} {
		b.Run(fmt.Sprintf("n=%d", c.n), func(b *testing.B) {
			in := irregularInstance(b, balanced(c.n, 4), c.seed)
			evals := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := NewExhaustive().Search(nil, in.e, in.spec, nil)
				if err != nil {
					b.Fatal(err)
				}
				evals += res.Evaluations
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}
