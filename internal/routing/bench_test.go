package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"commsched/internal/topology"
)

// BenchmarkNewUpDown times building the up*/down* structure — root
// election, levels, and every pair's distance and admissible hops — on a
// seeded degree-3 irregular network, the routing half of characterizing
// a network.
func BenchmarkNewUpDown(b *testing.B) {
	for _, n := range []int{16, 64, 96} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, err := topology.RandomIrregular(n, 3, rand.New(rand.NewSource(int64(n))), topology.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewUpDown(net, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
