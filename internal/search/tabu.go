package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"commsched/internal/mapping"
	"commsched/internal/obs"
	"commsched/internal/quality"
)

// Tabu is the paper's scheduling heuristic (Section 4.2): steepest-descent
// over pairwise inter-cluster swaps; at a local minimum, take the
// least-bad uphill swap and forbid its inverse for Tenure iterations;
// restart from fresh random mappings. A restart stops when the same local
// minimum has been reached RepeatLimit times or after MaxIterations
// iterations, whichever comes first.
type Tabu struct {
	// Restarts is the number of random starting mappings (paper: 10).
	Restarts int
	// MaxIterations bounds the iterations per restart (paper: 20).
	MaxIterations int
	// RepeatLimit stops a restart when the same local minimum value has
	// been reached this many times (paper: 3).
	RepeatLimit int
	// Tenure is h, the number of iterations the inverse of an uphill move
	// stays forbidden.
	Tenure int
	// RecordTrace enables TracePoint recording (Figure 1).
	RecordTrace bool
}

// NewTabu returns a Tabu searcher with the paper's parameters.
func NewTabu() *Tabu {
	return &Tabu{Restarts: 10, MaxIterations: 20, RepeatLimit: 3, Tenure: 4}
}

// Name implements Searcher.
func (t *Tabu) Name() string { return "tabu" }

// valueEpsilon is the tolerance when comparing objective values for "same
// local minimum" detection; IntraSum values are O(N²·max(T)²) ≈ 10³, so
// 1e-9 relative noise is far below distinguishable minima.
const valueEpsilon = 1e-9

// Objective abstracts what the Tabu procedure needs from an objective
// function: the total intra-cluster cost of a partition and the O(cluster)
// incremental effect of a swap. Both quality.Evaluator and
// quality.WeightedEvaluator satisfy it.
type Objective interface {
	// IntraSum returns the objective value of the partition.
	IntraSum(p *mapping.Partition) float64
	// SwapDelta returns the objective change if u and v were swapped.
	SwapDelta(p *mapping.Partition, u, v int) float64
}

// Search implements Searcher.
func (t *Tabu) Search(ctx context.Context, e *quality.Evaluator, spec Spec, rng *rand.Rand) (*Result, error) {
	if err := spec.validate(e); err != nil {
		return nil, err
	}
	sp, sctx := obs.StartSpanCtx(orBackground(ctx), "search.tabu", obs.F("restarts", t.Restarts))
	res, err := t.searchObjective(sctx, e, spec, rng, func(p *mapping.Partition) float64 {
		return e.Similarity(p)
	})
	if err != nil {
		sp.End(obs.F("err", true))
		return nil, err
	}
	res = finishResult(e, res)
	sp.End(obs.F("best", res.BestIntraSum), obs.F("evaluations", res.Evaluations), obs.F("iterations", res.Iterations))
	return res, nil
}

// SearchObjective runs the identical Tabu procedure over an arbitrary
// swap-evaluable objective — the entry point for the weighted
// communication-requirements extension. Result.BestF is left zero (the
// paper's F_G normalization only applies to the unweighted objective).
func (t *Tabu) SearchObjective(ctx context.Context, obj Objective, spec Spec, rng *rand.Rand) (*Result, error) {
	if err := validateSpecShape(spec); err != nil {
		return nil, err
	}
	sp, sctx := obs.StartSpanCtx(orBackground(ctx), "search.tabu", obs.F("restarts", t.Restarts))
	res, err := t.searchObjective(sctx, obj, spec, rng, nil)
	if err != nil {
		sp.End(obs.F("err", true))
		return nil, err
	}
	sp.End(obs.F("best", res.BestIntraSum), obs.F("evaluations", res.Evaluations), obs.F("iterations", res.Iterations))
	return res, nil
}

// SearchFrom runs a single warm-started Tabu pass from an existing
// partition instead of random restarts — the repair scheduler for degraded
// networks: starting from the pre-failure mapping keeps the search near
// it, so the repaired mapping moves few switches. The start partition must
// match the spec; it is not mutated.
func (t *Tabu) SearchFrom(ctx context.Context, obj Objective, spec Spec, rng *rand.Rand, start *mapping.Partition) (*Result, error) {
	ctx = orBackground(ctx)
	if err := validateSpecShape(spec); err != nil {
		return nil, err
	}
	if start == nil {
		return nil, fmt.Errorf("search: SearchFrom needs a start partition")
	}
	if start.N() != spec.N() || start.M() != spec.M() {
		return nil, fmt.Errorf("search: start partition is %d switches / %d clusters, spec wants %d / %d",
			start.N(), start.M(), spec.N(), spec.M())
	}
	for c := 0; c < start.M(); c++ {
		if start.Size(c) != spec.Sizes[c] {
			return nil, fmt.Errorf("search: start cluster %d has %d switches, spec wants %d",
				c, start.Size(c), spec.Sizes[c])
		}
	}
	sp, sctx := obs.StartSpanCtx(ctx, "search.tabu_warm", obs.F("n", start.N()), obs.F("m", start.M()))
	res := &Result{}
	globalIter := 0
	if err := t.runRestart(sctx, obj, start.Clone(), res, 0, &globalIter, nil); err != nil {
		return nil, err
	}
	sp.End(obs.F("best", res.BestIntraSum), obs.F("evaluations", res.Evaluations), obs.F("iterations", res.Iterations))
	return res, nil
}

// validateSpecShape checks the parts of a spec that do not need an
// evaluator.
func validateSpecShape(spec Spec) error {
	if len(spec.Sizes) == 0 {
		return fmt.Errorf("search: empty spec")
	}
	for c, x := range spec.Sizes {
		if x <= 0 {
			return fmt.Errorf("search: cluster %d has non-positive size %d", c, x)
		}
	}
	return nil
}

// searchObjective is the shared Tabu core. traceF, when non-nil and
// RecordTrace is set, maps partitions to the recorded trace value.
//
// Restart seeds are pre-drawn from rng and every restart is fully
// independent (own starting partition, own incumbent for the aspiration
// criterion); the restarts run in sequence and merge in restart order.
// One start generator serves every restart, reseeded with the restart's
// seed, which gives the stream a fresh rand.New(rand.NewSource(seed))
// would without allocating a source per restart.
func (t *Tabu) searchObjective(ctx context.Context, obj Objective, spec Spec, rng *rand.Rand, traceF func(*mapping.Partition) float64) (*Result, error) {
	seeds := restartSeeds(rng, t.Restarts)
	var startRng *rand.Rand
	merged := &Result{}
	globalIter := 0
	var record func(p *mapping.Partition, restart int)
	if t.RecordTrace && traceF != nil {
		record = func(p *mapping.Partition, restart int) {
			merged.Trace = append(merged.Trace, TracePoint{Iteration: globalIter, Restart: restart, F: traceF(p)})
		}
	}
	for restart, seed := range seeds {
		if startRng == nil {
			startRng = rand.New(rand.NewSource(seed))
		} else {
			startRng.Seed(seed)
		}
		sub, err := t.runSeededRestart(ctx, obj, spec, startRng, restart, &globalIter, record)
		if err != nil {
			return nil, err
		}
		mergeResult(merged, sub)
		obs.Progress("search.tabu", int64(restart+1), int64(len(seeds)))
	}
	return merged, nil
}

// restartSeeds pre-draws one seed per restart, making the set of starting
// partitions a pure function of the incoming rng state.
func restartSeeds(rng *rand.Rand, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return seeds
}

// runSeededRestart executes one independent restart from a start
// partition drawn from startRng, seeded with the restart's pre-drawn
// seed, and returns its private Result.
func (t *Tabu) runSeededRestart(ctx context.Context, obj Objective, spec Spec, startRng *rand.Rand, restart int, globalIter *int, record func(*mapping.Partition, int)) (*Result, error) {
	p, err := spec.randomPartition(startRng)
	if err != nil {
		return nil, err
	}
	sub := &Result{}
	if err := t.runRestart(ctx, obj, p, sub, restart, globalIter, record); err != nil {
		return nil, err
	}
	return sub, nil
}

// mergeResult folds one restart's result into the aggregate, keeping the
// strictly better incumbent (the first restart wins ties).
func mergeResult(dst, src *Result) {
	dst.Evaluations += src.Evaluations
	dst.Iterations += src.Iterations
	if dst.Best == nil || src.BestIntraSum < dst.BestIntraSum-valueEpsilon {
		dst.Best = src.Best
		dst.BestIntraSum = src.BestIntraSum
	}
}

// restartStats accumulates the observability counters of one Tabu
// restart: neighborhood-scan activity and move outcomes.
type restartStats struct {
	iterations  int     // accepted moves this restart
	evaluations int     // candidate evaluations this restart
	exact       int     // candidates priced by Objective.SwapDelta
	tabuHits    int     // candidate moves rejected by the tabu list
	aspirations int     // tabu moves admitted by the aspiration criterion
	improving   int     // accepted moves with negative delta
	uphill      int     // tabu-escape moves (non-negative delta)
	improvement float64 // total objective decrease from improving moves
}

// runRestart executes one Tabu pass from the given starting partition,
// updating res in place. The partition is mutated.
func (t *Tabu) runRestart(ctx context.Context, obj Objective, p *mapping.Partition, res *Result, restart int, globalIter *int, record func(*mapping.Partition, int)) error {
	start := obj.IntraSum(p)
	cur := start
	t.consider(obj, res, p, cur)
	if record != nil {
		record(p, restart)
	}

	tb := newSwapTable(obj, p)
	// tabu[key] = first iteration at which the move is allowed again.
	tabu := map[[2]int]int{}
	localMinima := []float64{} // values of local minima reached this restart
	repeats := 0
	var stats restartStats

	for iter := 0; iter < t.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("search: tabu cancelled: %w", err)
		}
		*globalIter++
		bestU, bestV, bestDelta, found := t.bestMove(obj, &tb, p, tabu, iter, cur, res.BestIntraSum, &stats)
		sweep := evalsPerSweep(p)
		res.Evaluations += sweep
		stats.evaluations += sweep
		if !found {
			// Fully tabu neighborhood (tiny instances): nothing to do.
			break
		}
		if bestDelta >= -valueEpsilon {
			// Local minimum: record it, count repeats of the same value.
			repeats = countRepeat(localMinima, cur)
			localMinima = append(localMinima, cur)
			if repeats >= t.RepeatLimit {
				break
			}
			// Escape uphill with the smallest increase; forbid the
			// inverse move for Tenure iterations.
			tabu[moveKey(bestU, bestV)] = iter + 1 + t.Tenure
			stats.uphill++
		} else {
			stats.improving++
			stats.improvement -= bestDelta
		}
		tb.swap(bestU, bestV, p.Cluster(bestU), p.Cluster(bestV))
		p.Swap(bestU, bestV)
		cur += bestDelta
		res.Iterations++
		stats.iterations++
		t.consider(obj, res, p, cur)
		if record != nil {
			record(p, restart)
		}
	}
	if obs.Enabled() {
		tabuRate := 0.0
		if stats.evaluations > 0 {
			tabuRate = float64(stats.tabuHits) / float64(stats.evaluations)
		}
		obs.Event("search.restart",
			obs.F("heuristic", "tabu"),
			obs.F("restart", restart),
			obs.F("iterations", stats.iterations),
			obs.F("evaluations", stats.evaluations),
			obs.F("exact_evaluations", stats.exact),
			obs.F("tabu_hits", stats.tabuHits),
			obs.F("tabu_hit_rate", tabuRate),
			obs.F("aspirations", stats.aspirations),
			obs.F("improving_moves", stats.improving),
			obs.F("uphill_moves", stats.uphill),
			obs.F("improvement", stats.improvement),
			obs.F("start", start),
			obs.F("final", cur),
			obs.F("best", res.BestIntraSum))
	}
	return nil
}

// bestMove scans all inter-cluster swaps and returns the non-tabu move
// with the smallest delta, the smallest (u, v) with u < v among equal
// deltas. Tabu moves are admissible when they would beat the global best
// (aspiration criterion). stats accumulates tabu-hit and aspiration
// counts for the restart's observability record.
//
// With a swap table (the paper's objective) the scan goes block by
// block, {x} × b for x in a cluster a < b, and skips a block, or a pair
// within one, whose table bound already exceeds the best delta so far:
// no candidate in it could win or tie. The bound is strict and moves tabu
// this iteration are never skipped, so every candidate that could win,
// tie or touch the tabu counters is priced by SwapDelta as without the
// table, and the chosen move and the counters do not depend on the
// screen. Without a table every pair is priced, in (u, v) order.
func (t *Tabu) bestMove(e Objective, tb *swapTable, p *mapping.Partition, tabu map[[2]int]int, iter int, cur, globalBest float64, stats *restartStats) (u, v int, delta float64, found bool) {
	s := moveScan{cur: cur, globalBest: globalBest, stats: stats, delta: math.Inf(1)}
	// The moves forbidden this iteration, at most Tenure of them (the
	// buffer keeps usual tenures off the heap).
	var activeBuf [8][2]int
	active := activeBuf[:0]
	for k, until := range tabu {
		if iter < until {
			active = append(active, k)
		}
	}
	if tb.g != nil {
		s.scanBlocks(tb, p, active)
		return s.u, s.v, s.delta, s.found
	}
	n := p.N()
	for a := 0; a < n; a++ {
		ca := p.Cluster(a)
		for b := a + 1; b < n; b++ {
			if p.Cluster(b) != ca {
				s.take(a, b, e.SwapDelta(p, a, b), slices.Contains(active, [2]int{a, b}))
			}
		}
	}
	return s.u, s.v, s.delta, s.found
}

// moveScan is one bestMove pass: the values the tabu and aspiration
// checks read, and the best move so far.
type moveScan struct {
	cur, globalBest float64
	stats           *restartStats

	u, v  int
	delta float64
	found bool
}

// take weighs the swap of a < b, priced exactly as SwapDelta(p, a, b) = d,
// and keeps it when it is admissible and beats the best so far, the
// smaller pair winning a tie. SwapDelta must take the pair in that order:
// the argument order fixes its summation order, and with it the last bit
// of d.
func (s *moveScan) take(a, b int, d float64, tabu bool) {
	s.stats.exact++
	if tabu {
		// Aspiration: allow a tabu move only if it improves on the best
		// value seen anywhere.
		if s.globalBest == 0 || s.cur+d >= s.globalBest-valueEpsilon {
			s.stats.tabuHits++
			return
		}
		s.stats.aspirations++
	}
	if d < s.delta || d == s.delta && (a < s.u || a == s.u && b < s.v) {
		s.u, s.v, s.delta, s.found = a, b, d, true
	}
}

// scanBlocks is the screened scan over the table's blocks. A block or
// pair holding one of the active tabu moves is priced whatever its bound,
// for the tabu counters.
func (s *moveScan) scanBlocks(tb *swapTable, p *mapping.Partition, active [][2]int) {
	tb.refresh(p)
	for ca := 0; ca < p.M(); ca++ {
		for cb := ca + 1; cb < p.M(); cb++ {
			ys := p.MembersUnordered(cb)
			for _, x := range p.MembersUnordered(ca) {
				tabuHere := holdsTabu(active, p, x, cb)
				if !tabuHere && tb.blockFloor(x, ca, cb) > s.delta {
					continue
				}
				ax, tx := tb.gain(x, ca, cb), tb.e.Row(x)
				for _, y := range ys {
					lo, hi := min(x, y), max(x, y)
					tabu := tabuHere && slices.Contains(active, [2]int{lo, hi})
					// The pair's table price less the slack: a lower bound
					// on its SwapDelta.
					if ax+tb.gain(y, cb, ca)-2*tx[y]-tb.slack > s.delta && !tabu {
						continue
					}
					s.take(lo, hi, tb.e.SwapDelta(p, lo, hi), tabu)
				}
			}
		}
	}
}

// holdsTabu reports whether one of the active tabu moves swaps x with a
// member of cluster c.
func holdsTabu(active [][2]int, p *mapping.Partition, x, c int) bool {
	for _, k := range active {
		if k[0] == x && p.Cluster(k[1]) == c || k[1] == x && p.Cluster(k[0]) == c {
			return true
		}
	}
	return false
}

// consider updates the incumbent best-so-far. The candidate is screened
// with the cheap running value, but the stored incumbent is re-evaluated
// from scratch: delta accumulation drifts in the last ulp, and the exact
// value keeps BestIntraSum identical across objective implementations
// that agree analytically (e.g. unit-weight WeightedEvaluator vs
// Evaluator).
func (t *Tabu) consider(obj Objective, res *Result, p *mapping.Partition, val float64) {
	if res.Best == nil || val < res.BestIntraSum-valueEpsilon {
		res.Best = p.Clone()
		res.BestIntraSum = obj.IntraSum(p)
	}
}

// countRepeat returns how many recorded minima match val (within
// tolerance), plus one for the current occurrence.
func countRepeat(minima []float64, val float64) int {
	c := 1
	for _, m := range minima {
		if math.Abs(m-val) <= valueEpsilon*(1+math.Abs(val)) {
			c++
		}
	}
	return c
}

// moveKey canonicalizes an (u,v) swap; the move and its inverse share one
// key, which is exactly what the tabu list must forbid.
func moveKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// evalsPerSweep counts the candidate evaluations of one full neighborhood
// scan: all inter-cluster pairs.
func evalsPerSweep(p *mapping.Partition) int {
	n := p.N()
	same := 0
	for c := 0; c < p.M(); c++ {
		x := p.Size(c)
		same += x * (x - 1) / 2
	}
	return n*(n-1)/2 - same
}
