package search

import (
	"math"

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
//	A_u(cv) + A_v(cu) − 2·T²(u,v),  with A_u(c) = g[u][c] − g[u][cu].
//
// The price is exact up to rounding, so Tabu uses it only to screen out
// candidates that cannot win and confirms the rest with SwapDelta. The
// same terms bound a whole block {x} × b of candidates at once: with
// minA[b][a] the least A_y(a) over y ∈ b and rowMax[x] the largest
// T²(x,·), no swap of x ∈ a with a member of b costs less than
// A_x(b) + minA[b][a] − 2·rowMax[x]. The zero swapTable (g nil) screens
// nothing: objectives other than *quality.Evaluator are always priced
// exactly. T² is taken as symmetric, as Evaluator.IntraSum does when it
// counts each pair once.
type swapTable struct {
	e      *quality.Evaluator
	m      int
	g      []float64
	rowMax []float64 // rowMax[u] = max_w T²(u,w)
	// minA[b·M+a] = min_{y∈b} A_y(a), kept for a < b only — the entries
	// the block scan reads — and recomputed by refresh.
	minA  []float64
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
	// One allocation backs g, rowMax and minA.
	buf := make([]float64, n*m+n+m*m)
	g, rowMax, minA := buf[:n*m], buf[n*m:n*m+n], buf[n*m+n:]
	maxRow := 0.0
	for u := 0; u < n; u++ {
		row := g[u*m : u*m+m]
		sum, top := 0.0, 0.0
		for w, t2 := range e.Row(u) {
			row[p.Cluster(w)] += t2
			sum += t2
			if t2 > top {
				top = t2
			}
		}
		rowMax[u] = top
		maxRow = max(maxRow, sum)
	}
	return swapTable{e: e, m: m, g: g, rowMax: rowMax, minA: minA, slack: screenSlack * (1 + maxRow)}
}

// gain returns A_x(b) for x ∈ a.
func (tb *swapTable) gain(x, a, b int) float64 {
	gx := tb.g[x*tb.m : x*tb.m+tb.m]
	return gx[b] - gx[a]
}

// refresh recomputes minA for p in O(N·M); call it after the last swap
// and before blockFloor.
func (tb *swapTable) refresh(p *mapping.Partition) {
	m := tb.m
	for b := 1; b < m; b++ {
		row := tb.minA[b*m : b*m+b]
		for a := range row {
			row[a] = math.Inf(1)
		}
		for _, y := range p.MembersUnordered(b) {
			gy := tb.g[y*m : y*m+m]
			for a := range row {
				if d := gy[a] - gy[b]; d < row[a] {
					row[a] = d
				}
			}
		}
	}
}

// blockFloor returns a lower bound on SwapDelta for swapping x ∈ a with
// any member of cluster b > a. Its margin is twice the pair slack, as the
// bound sums the table terms in yet another order than the pair price.
func (tb *swapTable) blockFloor(x, a, b int) float64 {
	return tb.gain(x, a, b) + tb.minA[b*tb.m+a] - 2*tb.rowMax[x] - 2*tb.slack
}

// swap updates the table in O(N) for u (in cu) and v (in cv) trading
// clusters; call it before the partition's own Swap.
func (tb *swapTable) swap(u, v, cu, cv int) {
	if tb.g == nil {
		return
	}
	ru, rv := tb.e.Row(u), tb.e.Row(v)
	for w := range ru {
		d := rv[w] - ru[w]
		tb.g[w*tb.m+cu] += d
		tb.g[w*tb.m+cv] -= d
	}
}
