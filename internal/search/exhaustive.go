package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"commsched/internal/mapping"
	"commsched/internal/quality"
)

// Exhaustive is the module's exact engine: a depth-first branch and bound
// over every distinct partition matching the spec, which returns the
// global optimum. Switches are placed in index order. Clusters of equal
// size are interchangeable (the paper's logical clusters all have
// identical communication requirements), so label symmetry between
// same-size clusters is broken: among empty same-size clusters, only the
// first may be opened.
//
// Once it holds an incumbent, the search cuts a subtree when the cost
// committed so far plus a lower bound on what the unplaced switches must
// still add, less a margin of valueEpsilon of the incumbent, reaches the
// incumbent. The bound has two terms over disjoint sets of pairs:
//
//   - each unplaced switch pays at least its cheapest sum of T² to the
//     members already placed in a cluster that still has room;
//   - the unplaced switches that will share a cluster form Σ_c C(r_c, 2)
//     pairs, r_c the room left in cluster c, which cost at least the sum
//     of that many smallest T² among pairs of unplaced switches.
//
// A subtree is cut only when it cannot hold a strictly better partition,
// so the incumbents, Best and BestIntraSum are those of plain enumeration;
// the bound only lowers Evaluations (candidates priced) and Iterations
// (complete partitions reached).
//
// The paper's 16-switch case — 16 switches into four unlabeled clusters
// of 4 — has 16!/(4!⁴·4!) = 2 627 625 partitions. The engine proves the
// optimum over them pricing a few thousand candidates, in milliseconds;
// this is how the paper's claim that Tabu reaches the optimum on small
// networks is checked.
type Exhaustive struct {
	// Limit aborts the search after this many search-tree nodes
	// (0 = unlimited). A safety valve for accidental large inputs.
	Limit int
}

// NewExhaustive returns an unlimited exhaustive searcher.
func NewExhaustive() *Exhaustive { return &Exhaustive{} }

// Name implements Searcher.
func (x *Exhaustive) Name() string { return "exhaustive" }

// ErrLimitExceeded reports that enumeration hit the configured limit.
var ErrLimitExceeded = fmt.Errorf("search: exhaustive enumeration limit exceeded")

// Search implements Searcher. rng is unused (the search is deterministic)
// but accepted for interface uniformity.
func (x *Exhaustive) Search(ctx context.Context, e *quality.Evaluator, spec Spec, _ *rand.Rand) (*Result, error) {
	ctx = orBackground(ctx)
	if err := spec.validate(e); err != nil {
		return nil, err
	}
	b := newBranch(e, spec)
	res := &Result{}
	nodes, complete := 0, 0
	var rec func(s int, cost float64) error
	rec = func(s int, cost float64) error {
		nodes++
		if x.Limit > 0 && nodes > x.Limit {
			return ErrLimitExceeded
		}
		if nodes%4096 == 1 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("search: exhaustive cancelled: %w", err)
			}
		}
		// Prune: every completion of this subtree costs at least the
		// committed cost plus the bound. The margin absorbs the rounding
		// of the bound's own sums; without the bound this is the plain
		// committed-cost cut (all increments are non-negative).
		if res.Best != nil && cost+max(b.bound(s)-valueEpsilon*res.BestIntraSum, 0) >= res.BestIntraSum {
			return nil
		}
		if s == b.n {
			complete++
			if res.Best == nil || cost < res.BestIntraSum {
				p, err := mapping.New(b.assign, b.m)
				if err != nil {
					return err
				}
				res.Best = p
				res.BestIntraSum = cost
			}
			return nil
		}
		for c := 0; c < b.m; c++ {
			if !b.open(c) {
				continue
			}
			res.Evaluations++
			add := b.place(s, c)
			if err := rec(s+1, cost+add); err != nil {
				return err
			}
			b.room[c]++
		}
		return nil
	}
	if err := rec(0, 0); err != nil {
		return nil, err
	}
	res.Iterations = complete
	return finishResult(e, res), nil
}

// branch is the state of one Exhaustive search: the placement of switches
// 0..s-1 and the tables its bound reads.
type branch struct {
	e      *quality.Evaluator
	sizes  []int
	n, m   int
	assign []int
	room   []int // room[c] = places left in cluster c
	// twin[c] is the nearest earlier cluster of c's size, -1 if none.
	twin []int
	// sums[s][u*m+c] is the sum of T²(u, w) over the members w < s of
	// cluster c, for u >= s, added in index order as a direct sum would
	// add them: sums[s][s*m+c] is bit for bit the cost of placing s in c.
	// Each depth keeps its own copy; undoing an addition by subtraction on
	// backtrack would drift in the last bits.
	sums [][]float64
	// floor[s][k] is the sum of the k smallest T² among pairs of the
	// switches s..n-1, the unplaced ones at depth s.
	floor [][]float64
}

func newBranch(e *quality.Evaluator, spec Spec) *branch {
	n, m := spec.N(), spec.M()
	b := &branch{
		e: e, sizes: spec.Sizes, n: n, m: m,
		assign: make([]int, n),
		room:   slices.Clone(spec.Sizes),
		twin:   make([]int, m),
		sums:   make([][]float64, n+1),
		floor:  make([][]float64, n+1),
	}
	for c := range b.twin {
		b.twin[c] = -1
		for d := 0; d < c; d++ {
			if spec.Sizes[d] == spec.Sizes[c] {
				b.twin[c] = d
			}
		}
	}
	var pairs []float64
	for s := n; s >= 0; s-- {
		b.sums[s] = make([]float64, n*m)
		for u := s + 1; u < n; u++ {
			pairs = append(pairs, e.PairSquared(u, s))
		}
		slices.Sort(pairs)
		b.floor[s] = make([]float64, len(pairs)+1)
		for k, v := range pairs {
			b.floor[s][k+1] = b.floor[s][k] + v
		}
	}
	return b
}

// open reports whether the next switch may join cluster c: c has room,
// and c is not an empty cluster behind an empty one of its size. The
// clusters of one size are opened in index order, so the empty ones are
// always the last of their size and the nearest earlier one decides.
func (b *branch) open(c int) bool {
	if b.room[c] == 0 {
		return false
	}
	t := b.twin[c]
	return b.room[c] < b.sizes[c] || t < 0 || b.room[t] < b.sizes[t]
}

// place puts switch s in cluster c, fills the sums of depth s+1 and
// returns the cost s adds. The caller gives the room back on backtrack.
func (b *branch) place(s, c int) float64 {
	b.assign[s] = c
	b.room[c]--
	cur, next := b.sums[s], b.sums[s+1]
	copy(next[(s+1)*b.m:], cur[(s+1)*b.m:])
	for u := s + 1; u < b.n; u++ {
		next[u*b.m+c] += b.e.PairSquared(u, s)
	}
	return cur[s*b.m+c]
}

// bound is a lower bound on the cost that switches s..n-1 add to the
// current placement of 0..s-1 (see Exhaustive).
func (b *branch) bound(s int) float64 {
	pairs := 0
	for _, r := range b.room {
		pairs += r * (r - 1) / 2
	}
	lb := b.floor[s][pairs]
	for u := s; u < b.n; u++ {
		cheapest := math.Inf(1)
		for c, r := range b.room {
			if r > 0 {
				cheapest = min(cheapest, b.sums[s][u*b.m+c])
			}
		}
		lb += cheapest
	}
	return lb
}
