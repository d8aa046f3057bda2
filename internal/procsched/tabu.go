package procsched

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"commsched/internal/mapping"
	"commsched/internal/search"
)

// Result is the outcome of a process-level search.
type Result struct {
	// Best is the best placement found.
	Best *Assignment
	// BestCost is its objective value.
	BestCost float64
	// Evaluations counts the candidate swaps of search.Tabu's full
	// neighbourhood scans: every pair of slots on different hosts,
	// including pairs that involve free slots.
	Evaluations int
	// Iterations counts applied moves.
	Iterations int
}

// NewTabu returns the process-level search parameters: the paper's
// procedure (repeat limit 3, tenure 4, 10 restarts) with 40 iterations
// per restart instead of 20, because the slot neighbourhood is larger
// than the switch-level one.
func NewTabu() *search.Tabu {
	return &search.Tabu{Restarts: 10, MaxIterations: 40, RepeatLimit: 3, Tenure: 4}
}

// Search runs t over the problem's slot partition (see slots) and
// returns the best placement. Cancellation, tracing and determinism are
// search.Tabu's; a nil ctx means context.Background.
func Search(ctx context.Context, pr *Problem, t *search.Tabu, rng *rand.Rand) (*Result, error) {
	res, err := t.SearchObjective(ctx, slots{pr}, pr.slotSpec(), rng)
	if err != nil {
		return nil, fmt.Errorf("procsched: %w", err)
	}
	hostOf := make([]int, pr.Processes())
	for p := range hostOf {
		hostOf[p] = res.Best.Cluster(p)
	}
	best, err := pr.NewAssignment(hostOf)
	if err != nil {
		return nil, err
	}
	return &Result{Best: best, BestCost: res.BestIntraSum, Evaluations: res.Evaluations, Iterations: res.Iterations}, nil
}

// slots is the search.Objective view of a Problem: a mapping.Partition
// of Hosts()×SlotsPerHost slots into one cluster of SlotsPerHost per
// host, where item p < Processes() is process p and every later item is
// a free slot that carries no traffic. Swapping processes and moving a
// process to a free slot are then both swaps.
type slots struct{ pr *Problem }

// slotSpec is the slot partition's shape: one cluster of SlotsPerHost
// slots per host.
func (pr *Problem) slotSpec() search.Spec {
	sizes := make([]int, pr.Net.Hosts())
	for h := range sizes {
		sizes[h] = pr.SlotsPerHost
	}
	return search.Spec{Sizes: sizes}
}

// IntraSum implements search.Objective.
func (o slots) IntraSum(part *mapping.Partition) float64 { return o.pr.cost(part.Cluster) }

// SwapDelta implements search.Objective in O(Processes()). Swapping two
// free slots is not a move: it returns +Inf, which search.Tabu never
// selects.
func (o slots) SwapDelta(part *mapping.Partition, u, v int) float64 {
	pr := o.pr
	n := pr.Processes()
	if u >= n {
		u, v = v, u
	}
	if u >= n {
		return math.Inf(1)
	}
	cu, cv := pr.ClusterOf[u], -1 // a free slot belongs to no cluster
	if v < n {
		cv = pr.ClusterOf[v]
	}
	// Hosts are partition labels, already in [0,Hosts()), so the switch
	// is a plain division rather than the range-checked HostSwitch.
	hps := pr.Net.HostsPerSwitch()
	su, sv := part.Cluster(u)/hps, part.Cluster(v)/hps
	if su == sv || cu == cv {
		return 0 // same switch, or same cluster: distances unchanged
	}
	rowU, rowV := pr.t2[su], pr.t2[sv]
	delta := 0.0
	for r, c := range pr.ClusterOf {
		if (c != cu && c != cv) || r == u || r == v {
			continue
		}
		sr := part.Cluster(r) / hps
		if c == cu {
			delta += rowV[sr] - rowU[sr]
		} else {
			delta += rowU[sr] - rowV[sr]
		}
	}
	return delta
}
