package search

import (
	"commsched/internal/mapping"
	"commsched/internal/quality"
)

// screenSlack scales the margin by which a swap table's price may differ
// from quality.Evaluator.SwapDelta. The two sum the same T² terms in
// different orders, so they disagree only by rounding: about
// (6N + 12·iterations)·2⁻⁵³·R, with R the largest row sum of T². A slack
// of 1e-9·(1 + R) is more than a hundred times that for any N up to 10⁴
// at the paper's 20 iterations.
const screenSlack = 1e-9

// swapTable prices the paper's swap move in O(1) from per-switch cluster
// sums — the gain bookkeeping of Kernighan–Lin/Fiduccia–Mattheyses
// partition refinement. For the partition it tracks,
//
//	g[u·M+c] = Σ_{w∈c} T²(u,w),
//
// and the change in IntraSum from swapping u ∈ cu with v ∈ cv is
//
//	g[v][cu] + g[u][cv] − g[u][cu] − g[v][cv] − 2·T²(u,v).
//
// The price is exact up to rounding, so Tabu uses it only to screen out
// candidates that cannot win and confirms the rest with SwapDelta. The
// zero swapTable (g nil) screens nothing: objectives other than
// *quality.Evaluator are always priced exactly. T² is taken as symmetric,
// as Evaluator.IntraSum does when it counts each pair once.
type swapTable struct {
	e     *quality.Evaluator
	m     int
	g     []float64
	slack float64
}

// newSwapTable builds the table for p in O(N²), or returns the zero table
// when obj is not the paper's objective.
func newSwapTable(obj Objective, p *mapping.Partition) swapTable {
	e, ok := obj.(*quality.Evaluator)
	if !ok {
		return swapTable{}
	}
	n, m := p.N(), p.M()
	g := make([]float64, n*m)
	maxRow := 0.0
	for u := 0; u < n; u++ {
		row := g[u*m : u*m+m]
		sum := 0.0
		for w := 0; w < n; w++ {
			t2 := e.PairSquared(u, w)
			row[p.Cluster(w)] += t2
			sum += t2
		}
		maxRow = max(maxRow, sum)
	}
	return swapTable{e: e, m: m, g: g, slack: screenSlack * (1 + maxRow)}
}

// floor returns a lower bound on SwapDelta for swapping u ∈ cu with
// v ∈ cv: the table price less the slack.
func (tb *swapTable) floor(u, v, cu, cv int) float64 {
	gu, gv := tb.g[u*tb.m:], tb.g[v*tb.m:]
	return gv[cu] + gu[cv] - gu[cu] - gv[cv] - 2*tb.e.PairSquared(u, v) - tb.slack
}

// swap updates the table in O(N) for u (in cu) and v (in cv) trading
// clusters; call it before the partition's own Swap.
func (tb *swapTable) swap(u, v, cu, cv int) {
	if tb.g == nil {
		return
	}
	for w := 0; w < len(tb.g)/tb.m; w++ {
		d := tb.e.PairSquared(v, w) - tb.e.PairSquared(u, w)
		tb.g[w*tb.m+cu] += d
		tb.g[w*tb.m+cv] -= d
	}
}
