package heft

import (
	"math/rand"
	"testing"

	"commsched/internal/metatask"
)

// BenchmarkScheduleDAG times one HEFT schedule per op: a seeded layered
// DAG of 8 layers × 8 tasks, with the adversarial search's heterogeneity
// (2) and communication-to-computation ratio (1.5), on 8 processors
// whose MatrixComm charges the hop distance around a ring.
func BenchmarkScheduleDAG(b *testing.B) {
	const procs = 8
	d, err := metatask.GenerateLayeredDAG(8, 8, procs, 2, 1.5, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	cost := make([][]float64, procs)
	for p := range cost {
		cost[p] = make([]float64, procs)
		for q := range cost[p] {
			hops := (p - q + procs) % procs
			cost[p][q] = float64(min(hops, procs-hops))
		}
	}
	cm, err := NewMatrixComm(cost)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleDAG(d, cm); err != nil {
			b.Fatal(err)
		}
	}
}
