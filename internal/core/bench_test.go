package core

import (
	"fmt"
	"math/rand"
	"testing"

	"commsched/internal/fault"
	"commsched/internal/topology"
)

// benchNet is the seeded degree-3 irregular network the core benchmarks
// characterize, the same family distance.BenchmarkCompute times.
func benchNet(b *testing.B, n int) *topology.Network {
	b.Helper()
	net, err := topology.RandomIrregular(n, 3, rand.New(rand.NewSource(int64(n))), topology.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkNewSystem times one characterization per op: up*/down*
// routing, the table of equivalent distances and the evaluator.
func BenchmarkNewSystem(b *testing.B) {
	for _, n := range []int{16, 64, 96} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := benchNet(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewSystem(net, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDegrade times one re-characterization per op after a seeded
// single-link failure: routing re-derived and checked deadlock-free, and
// the table rebuilt incrementally by distance.ComputeDelta.
func BenchmarkDegrade(b *testing.B) {
	for _, n := range []int{64, 96} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := benchNet(b, n)
			sys, err := NewSystem(net, Options{})
			if err != nil {
				b.Fatal(err)
			}
			plan, err := fault.RandomPlan(net, fault.PlanSpec{LinkFailures: 1}, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Degrade(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
