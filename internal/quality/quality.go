// Package quality implements the paper's Section 4.1 criterion for
// measuring how well a mapping of processes to processors fits the
// network: the similarity function F_G over intra-cluster equivalent
// distances, the dissimilarity function D_G over inter-cluster distances,
// and their quotient Cc = D_G / F_G — the clustering coefficient, a proxy
// for the intra-/inter-cluster bandwidth relationship that the scheduler
// maximizes.
package quality

import (
	"fmt"

	"commsched/internal/distance"
	"commsched/internal/mapping"
)

// Evaluator computes the paper's quality functions for partitions over a
// fixed table of equivalent distances. Construction precomputes the
// squared distances and the global normalization constant.
type Evaluator struct {
	n  int
	t2 [][]float64 // squared distances
	// sumSq = Σ_{i<j} T².  quadMean = sumSq / (N(N−1)/2).
	sumSq    float64
	quadMean float64
}

// NewEvaluator prepares an evaluator for the given distance table.
func NewEvaluator(tab *distance.Table) *Evaluator {
	n := tab.N()
	e := &Evaluator{n: n, t2: make([][]float64, n)}
	for i := 0; i < n; i++ {
		e.t2[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			d := tab.At(i, j)
			e.t2[i][j] = d * d
		}
	}
	e.sumSq = tab.SumSquares()
	e.quadMean = tab.QuadraticMean()
	return e
}

// N returns the number of switches the evaluator covers.
func (e *Evaluator) N() int { return e.n }

// PairSquared returns the squared equivalent distance T²(i,j) — the term
// the paper's quality functions sum over.
func (e *Evaluator) PairSquared(i, j int) float64 { return e.t2[i][j] }

// Row returns T²(i,·) without copying; callers must not modify it.
func (e *Evaluator) Row(i int) []float64 { return e.t2[i] }

// QuadraticMean returns the normalization constant (the quadratic average
// of all pairwise distances).
func (e *Evaluator) QuadraticMean() float64 { return e.quadMean }

// ClusterSimilarity returns F_{A_c}: the sum of squared intra-cluster
// distances of cluster c (paper Eq. 1).
func (e *Evaluator) ClusterSimilarity(p *mapping.Partition, c int) float64 {
	ms := p.MembersUnordered(c)
	s := 0.0
	for i := 0; i < len(ms); i++ {
		row := e.t2[ms[i]]
		for j := i + 1; j < len(ms); j++ {
			s += row[ms[j]]
		}
	}
	return s
}

// IntraSum returns Σ_c F_{A_c}: the total squared intra-cluster distance —
// the raw objective the searchers minimize (the denominators of F_G are
// constant under swap moves, so minimizing IntraSum minimizes F_G).
func (e *Evaluator) IntraSum(p *mapping.Partition) float64 {
	s := 0.0
	for c := 0; c < p.M(); c++ {
		s += e.ClusterSimilarity(p, c)
	}
	return s
}

// intraPairs returns Σ_c x_c(x_c−1)/2, the number of intra-cluster pairs
// (paper Eq. 3).
func intraPairs(p *mapping.Partition) int {
	n := 0
	for c := 0; c < p.M(); c++ {
		x := p.Size(c)
		n += x * (x - 1) / 2
	}
	return n
}

// interOrderedPairs returns Σ_c x_c(N−x_c), the number of ordered
// inter-cluster pairs (the denominator of D_G, paper Eq. 5).
func interOrderedPairs(p *mapping.Partition) int {
	n := 0
	for c := 0; c < p.M(); c++ {
		x := p.Size(c)
		n += x * (p.N() - x)
	}
	return n
}

// Similarity returns the global similarity function F_G (paper Eq. 2):
// the mean squared intra-cluster distance normalized by the quadratic
// average of all distances. Values near 0 mean compact clusters; values
// above 1 mean a worse-than-random mapping.
func (e *Evaluator) Similarity(p *mapping.Partition) float64 {
	e.check(p)
	pairs := intraPairs(p)
	if pairs == 0 || e.quadMean == 0 {
		return 0
	}
	return e.IntraSum(p) / float64(pairs) / e.quadMean
}

// ClusterDissimilarity returns D_{A_c}: the sum of squared distances from
// cluster c's switches to every switch outside c (paper Eq. 4).
func (e *Evaluator) ClusterDissimilarity(p *mapping.Partition, c int) float64 {
	s := 0.0
	for _, u := range p.MembersUnordered(c) {
		row := e.t2[u]
		for v := 0; v < e.n; v++ {
			if p.Cluster(v) != c {
				s += row[v]
			}
		}
	}
	return s
}

// Dissimilarity returns the global dissimilarity function D_G (paper
// Eq. 5). Values near 1 mean inter-cluster distances close to the global
// average; larger values mean better separated clusters.
//
// Identity used: Σ_c D_{A_c} counts every unordered inter-cluster pair
// twice, and Σ_{i<j}T² = IntraSum + interSum, so D_G is derived from the
// intra sum without a second O(N²) pass.
func (e *Evaluator) Dissimilarity(p *mapping.Partition) float64 {
	e.check(p)
	ordered := interOrderedPairs(p)
	if ordered == 0 || e.quadMean == 0 {
		return 0
	}
	interSum := e.sumSq - e.IntraSum(p) // unordered
	return 2 * interSum / float64(ordered) / e.quadMean
}

// ClusteringCoefficient returns Cc = D_G / F_G, the intra/inter bandwidth
// relationship the scheduler maximizes. It returns +Inf-free semantics:
// when F_G is zero (degenerate single-switch clusters), it returns 0 so
// that callers can treat the value as "undefined/worst" rather than
// propagate infinities.
func (e *Evaluator) ClusteringCoefficient(p *mapping.Partition) float64 {
	f := e.Similarity(p)
	if f == 0 {
		return 0
	}
	return e.Dissimilarity(p) / f
}

// SwapDelta returns the change in IntraSum if switches u and v (in
// different clusters) were swapped, in O(|A_u| + |A_v|) time. A negative
// delta improves (reduces) the similarity objective. Swapping within one
// cluster returns 0.
func (e *Evaluator) SwapDelta(p *mapping.Partition, u, v int) float64 {
	cu, cv := p.Cluster(u), p.Cluster(v)
	if cu == cv {
		return 0
	}
	rowU, rowV := e.t2[u], e.t2[v]
	delta := 0.0
	for _, w := range p.MembersUnordered(cu) {
		if w == u {
			continue
		}
		delta += rowV[w] - rowU[w]
	}
	for _, w := range p.MembersUnordered(cv) {
		if w == v {
			continue
		}
		delta += rowU[w] - rowV[w]
	}
	// The pair (u,v) itself: it was inter-cluster before and stays
	// inter-cluster after (u and v trade places), so it contributes no
	// change — but the member loops above each counted T²(u,v) once with
	// the wrong sign context: cluster cu's loop adds rowV[w] for w≠u which
	// never includes v (v ∉ cu), and likewise for cv's loop. No correction
	// needed.
	return delta
}

// check panics when the partition does not match the evaluator's table —
// a programming error, not a runtime condition.
func (e *Evaluator) check(p *mapping.Partition) {
	if p.N() != e.n {
		panic(fmt.Sprintf("quality: partition covers %d switches, table covers %d", p.N(), e.n))
	}
}
