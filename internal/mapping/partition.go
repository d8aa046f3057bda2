// Package mapping represents mappings of processes to processors as the
// paper reduces them: under the simplifying assumptions (one process per
// processor, every process of a logical cluster mapped to hosts of the
// same switch set, cluster sizes integer multiples of the hosts per
// switch), a mapping is exactly a partition of the network switches into
// M clusters — one switch cluster per logical cluster of processes.
package mapping

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Partition assigns every switch to exactly one cluster. It is mutable
// through Swap (the move the paper's Tabu search uses) and keeps its
// per-cluster member lists incrementally up to date.
type Partition struct {
	assign  []int   // switch -> cluster
	members [][]int // cluster -> member switches (unordered)
	pos     []int   // switch -> index within members[assign[switch]]
}

// New validates assign (every label in [0,m), every cluster non-empty)
// and builds a partition. The slice is copied.
func New(assign []int, m int) (*Partition, error) {
	if m <= 0 {
		return nil, fmt.Errorf("mapping: need at least one cluster, got %d", m)
	}
	if len(assign) == 0 {
		return nil, fmt.Errorf("mapping: empty assignment")
	}
	p := &Partition{
		assign:  make([]int, len(assign)),
		members: make([][]int, m),
		pos:     make([]int, len(assign)),
	}
	copy(p.assign, assign)
	for s, c := range p.assign {
		if c < 0 || c >= m {
			return nil, fmt.Errorf("mapping: switch %d assigned to cluster %d, want [0,%d)", s, c, m)
		}
		p.pos[s] = len(p.members[c])
		p.members[c] = append(p.members[c], s)
	}
	for c, ms := range p.members {
		if len(ms) == 0 {
			return nil, fmt.Errorf("mapping: cluster %d is empty", c)
		}
	}
	return p, nil
}

// Balanced builds the canonical contiguous partition of n switches into m
// equal clusters (switch s goes to cluster s/(n/m)). n must be divisible
// by m — the paper's setting (4 clusters of N/4 switches).
func Balanced(n, m int) (*Partition, error) {
	if m <= 0 || n <= 0 || n%m != 0 {
		return nil, fmt.Errorf("mapping: cannot split %d switches into %d equal clusters", n, m)
	}
	per := n / m
	assign := make([]int, n)
	for s := range assign {
		assign[s] = s / per
	}
	return New(assign, m)
}

// Random builds a uniformly random balanced partition of n switches into
// m equal clusters — the paper's random mapping baseline.
func Random(n, m int, rng *rand.Rand) (*Partition, error) {
	if m <= 0 || n <= 0 || n%m != 0 {
		return nil, fmt.Errorf("mapping: cannot split %d switches into %d equal clusters", n, m)
	}
	per := n / m
	perm := rng.Perm(n)
	assign := make([]int, n)
	for i, s := range perm {
		assign[s] = i / per
	}
	return New(assign, m)
}

// RandomSizes builds a random partition with the given cluster sizes
// (supporting the unequal communication-requirement extension). The sizes
// must sum to the number of switches.
func RandomSizes(sizes []int, rng *rand.Rand) (*Partition, error) {
	n := 0
	for c, sz := range sizes {
		if sz <= 0 {
			return nil, fmt.Errorf("mapping: cluster %d has non-positive size %d", c, sz)
		}
		n += sz
	}
	if n == 0 {
		return nil, fmt.Errorf("mapping: no clusters")
	}
	perm := rng.Perm(n)
	assign := make([]int, n)
	i := 0
	for c, sz := range sizes {
		for k := 0; k < sz; k++ {
			assign[perm[i]] = c
			i++
		}
	}
	return New(assign, len(sizes))
}

// N returns the number of switches.
func (p *Partition) N() int { return len(p.assign) }

// M returns the number of clusters.
func (p *Partition) M() int { return len(p.members) }

// Cluster returns the cluster of switch s.
func (p *Partition) Cluster(s int) int { return p.assign[s] }

// Size returns the number of switches in cluster c.
func (p *Partition) Size(c int) int { return len(p.members[c]) }

// Members returns the switches of cluster c, sorted ascending (a copy).
func (p *Partition) Members(c int) []int {
	out := make([]int, len(p.members[c]))
	copy(out, p.members[c])
	sort.Ints(out)
	return out
}

// MembersUnordered returns the internal member slice of cluster c, in
// arbitrary order, without copying. Callers must not modify it; it is the
// hot path of the quality evaluator.
func (p *Partition) MembersUnordered(c int) []int { return p.members[c] }

// Assign returns a copy of the switch→cluster assignment.
func (p *Partition) Assign() []int {
	out := make([]int, len(p.assign))
	copy(out, p.assign)
	return out
}

// Clone returns an independent copy of the partition. The member lists
// share one backing array, each capped at its length so none can grow
// into its neighbour; nothing appends to them after New.
func (p *Partition) Clone() *Partition {
	cp := &Partition{
		assign:  append([]int(nil), p.assign...),
		members: make([][]int, len(p.members)),
		pos:     append([]int(nil), p.pos...),
	}
	backing := make([]int, 0, len(p.assign))
	for c, ms := range p.members {
		start := len(backing)
		backing = append(backing, ms...)
		cp.members[c] = backing[start:len(backing):len(backing)]
	}
	return cp
}

// Swap exchanges the clusters of switches u and v — the elementary move of
// the paper's Tabu search. Swapping within the same cluster is a no-op.
func (p *Partition) Swap(u, v int) {
	cu, cv := p.assign[u], p.assign[v]
	if cu == cv {
		return
	}
	pu, pv := p.pos[u], p.pos[v]
	p.members[cu][pu] = v
	p.members[cv][pv] = u
	p.pos[u], p.pos[v] = pv, pu
	p.assign[u], p.assign[v] = cv, cu
}

// Equal reports whether q assigns every switch to the same cluster label
// as p.
func (p *Partition) Equal(q *Partition) bool {
	if q == nil || len(p.assign) != len(q.assign) || len(p.members) != len(q.members) {
		return false
	}
	for s := range p.assign {
		if p.assign[s] != q.assign[s] {
			return false
		}
	}
	return true
}

// Canonical returns a copy with clusters relabeled in order of their
// smallest member, so that partitions identical up to cluster numbering
// compare Equal. Only valid for comparing partitions with the same
// cluster-size multiset semantics.
func (p *Partition) Canonical() *Partition {
	type clusterKey struct{ min, c int }
	keys := make([]clusterKey, len(p.members))
	for c, ms := range p.members {
		min := ms[0]
		for _, s := range ms {
			if s < min {
				min = s
			}
		}
		keys[c] = clusterKey{min, c}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].min < keys[j].min })
	relabel := make([]int, len(p.members))
	for newC, k := range keys {
		relabel[k.c] = newC
	}
	assign := make([]int, len(p.assign))
	for s, c := range p.assign {
		assign[s] = relabel[c]
	}
	out, err := New(assign, len(p.members))
	if err != nil {
		// Relabeling a valid partition is always valid.
		panic("mapping: canonicalization produced invalid partition: " + err.Error())
	}
	return out
}

// String renders the partition in the paper's Figure 2/4 style:
// "(0,1,11,12) (2,4,7,13) …" with clusters in canonical order.
func (p *Partition) String() string {
	cp := p.Canonical()
	var b strings.Builder
	for c := 0; c < cp.M(); c++ {
		if c > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('(')
		for i, s := range cp.Members(c) {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", s)
		}
		b.WriteByte(')')
	}
	return b.String()
}
