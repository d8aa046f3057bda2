package distance

import (
	"fmt"
	"math/rand"
	"testing"

	"commsched/internal/routing"
	"commsched/internal/topology"
)

// BenchmarkCompute times one full table of equivalent distances per op on
// a seeded degree-3 irregular network under up*/down* routing; ns/pair
// divides the time by the N(N−1)/2 resistance solves of each table.
func BenchmarkCompute(b *testing.B) {
	for _, n := range []int{16, 64, 96} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, err := topology.RandomIrregular(n, 3, rand.New(rand.NewSource(int64(n))), topology.Config{})
			if err != nil {
				b.Fatal(err)
			}
			ud, err := routing.NewUpDown(net, -1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(net, ud); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*(n-1)/2), "ns/pair")
		})
	}
}
