// Package routing implements the up*/down* routing scheme used by Autonet
// networks (Schroeder et al.), the routing algorithm the paper assumes when
// characterizing irregular topologies, plus a plain shortest-path provider
// used as an ablation baseline.
//
// Up*/down* routing builds a BFS spanning tree rooted at an elected switch
// and orients every link: the "up" end of a link is the end closer to the
// root (ties broken by lower switch ID). A legal route is zero or more
// links traversed in the up direction followed by zero or more links in
// the down direction; the down→up transition is forbidden, which breaks
// all cyclic channel dependencies and makes the scheme deadlock-free — at
// the price of forbidding some minimal paths and concentrating traffic
// near the root (the behaviour the paper's distance table captures).
package routing

import (
	"fmt"
	"slices"

	"commsched/internal/topology"
)

// PathProvider is what the distance-table construction needs from a
// routing algorithm: pairwise route length and the set of links used by
// shortest routes. Implementations must be safe for concurrent readers —
// the table construction fans pairs out across goroutines.
type PathProvider interface {
	// Distance returns the length in hops of the shortest route the
	// algorithm supplies between switches s and t, 0 when s == t.
	Distance(s, t int) int
	// AppendPathLinks appends to dst the set of links that belong to at
	// least one shortest route from s to t, each once, and returns the
	// extended slice; nothing is appended when s == t. It never reads or
	// dedupes against what dst already holds, so a caller that passes
	// its own buffer, truncated, gets the links without an allocation
	// once the buffer has grown to fit them.
	AppendPathLinks(dst []topology.Link, s, t int) []topology.Link
}

// Hop is one admissible next step of a routed message.
type Hop struct {
	// To is the neighbor switch to forward to.
	To int
	// Descending reports whether the message will have started its down
	// phase after taking this hop (once true, it stays true).
	Descending bool
}

// UpDown holds the spanning tree, link orientations, and per-pair legal
// shortest-path metadata for one network.
type UpDown struct {
	net   *topology.Network
	root  int
	level []int // BFS level of each switch from the root

	// dist[s][t] = legal shortest route length; the rows share one
	// backing array.
	dist [][]int
	// hops holds the admissible next hops on legal shortest routes of
	// every (destination, switch, phase) state, back to back: those of a
	// message at s in phase p destined to t are hops[off[k]:off[k+1]]
	// with k = (t·N + s)·2 + p.
	hops []Hop
	off  []int32
}

// phase indices for the legality automaton.
const (
	phaseUp   = 0 // still allowed to take up links
	phaseDown = 1 // committed to down links only
)

// NewUpDown builds the up*/down* routing structure. root selects the
// spanning-tree root; pass a negative value to auto-elect (the
// highest-degree switch, ties broken by lowest ID — a common Autonet
// refinement that keeps tree depth low).
func NewUpDown(net *topology.Network, root int) (*UpDown, error) {
	n := net.Switches()
	if root >= n {
		return nil, fmt.Errorf("routing: root %d out of range [0,%d)", root, n)
	}
	if root < 0 {
		root = electRoot(net)
	}
	// The levels are a BFS from the root, so they also tell whether the
	// network is connected; the error names what switch 0 cannot reach.
	level := net.BFSDistances(root)
	if slices.Contains(level, -1) {
		var unreachable []int
		for s, d := range net.BFSDistances(0) {
			if d < 0 {
				unreachable = append(unreachable, s)
			}
		}
		return nil, fmt.Errorf("routing: up*/down* requires a connected network: %s is partitioned, switches %v unreachable from switch 0",
			net.Name(), unreachable)
	}
	ud := &UpDown{net: net, root: root, level: level}
	ud.computeAllPairs()
	return ud, nil
}

// electRoot returns the highest-degree switch, breaking ties by lowest ID.
func electRoot(net *topology.Network) int {
	best, bestDeg := 0, -1
	for s := 0; s < net.Switches(); s++ {
		if d := net.Degree(s); d > bestDeg {
			best, bestDeg = s, d
		}
	}
	return best
}

// Root returns the spanning-tree root switch.
func (ud *UpDown) Root() int { return ud.root }

// Level returns the BFS level (distance from the root) of switch s.
func (ud *UpDown) Level(s int) int { return ud.level[s] }

// IsUp reports whether traversing the link from switch `from` to switch
// `to` is an up-direction move. The up end of a link is the end nearer the
// root; between same-level endpoints the lower ID is the up end.
func (ud *UpDown) IsUp(from, to int) bool {
	lf, lt := ud.level[from], ud.level[to]
	if lf != lt {
		return lt < lf
	}
	return to < from
}

// Distance returns the legal shortest route length from s to t.
func (ud *UpDown) Distance(s, t int) int { return ud.dist[s][t] }

// NextHops returns the admissible next hops for a message at switch s
// destined to switch t, given whether it has already begun descending.
// All returned hops lie on legal routes of minimal remaining length.
// The result is shared; callers must not modify it.
func (ud *UpDown) NextHops(s, t int, descending bool) []Hop {
	n := len(ud.dist)
	if s < 0 || s >= n || t < 0 || t >= n {
		// The flat table would alias another state's hops.
		panic(fmt.Sprintf("routing: NextHops(%d, %d) outside [0,%d)", s, t, n))
	}
	k := (t*n + s) * 2
	if descending {
		k++
	}
	lo, hi := ud.off[k], ud.off[k+1]
	if lo == hi {
		return nil
	}
	return ud.hops[lo:hi:hi]
}

// bfsState is one state of the legality automaton: a switch and a phase.
type bfsState struct{ v, p int }

// computeAllPairs fills dist, hops and off via one backward BFS per
// destination over the 2·N-state legality automaton
// (switch × {up-phase, down-phase}). Its buffers are allocated once per
// network: the BFS distances and queue are reused across destinations,
// and hops starts with room for 1.5 admissible hops per switch pair. The
// degree-3 irregular networks the paper routes need 1.14–1.26 at 16–128
// switches, so hops is allocated once for them without retaining much
// slack; denser fabrics (a torus, a hypercube) grow it once or twice.
func (ud *UpDown) computeAllPairs() {
	n := ud.net.Switches()
	cells := make([]int, n*n)
	ud.dist = make([][]int, n)
	for s := range ud.dist {
		ud.dist[s] = cells[s*n : (s+1)*n : (s+1)*n]
	}
	ud.off = make([]int32, 1, 2*n*n+1)
	ud.hops = make([]Hop, 0, 3*n*n/2)

	// db[p][v] = minimal legal hops from v (in phase p) to the target.
	dbCells := make([]int, 2*n)
	db := [2][]int{dbCells[:n:n], dbCells[n:]}
	queue := make([]bfsState, 0, 2*n)
	for t := 0; t < n; t++ {
		ud.backwardDistances(t, db, queue)
		for s := 0; s < n; s++ {
			ud.dist[s][t] = db[phaseUp][s]
			for _, p := range [2]int{phaseUp, phaseDown} {
				ud.hops = ud.appendAdmissibleHops(ud.hops, s, t, p, db)
				ud.off = append(ud.off, int32(len(ud.hops)))
			}
		}
	}
}

// backwardDistances computes db[p][v]: the minimal number of hops needed
// to reach t from v when the message at v is in phase p. Arrival in either
// phase terminates. The automaton transitions, forward, are:
//
//	(v, up)   --up-link-->   (w, up)
//	(v, up)   --down-link--> (w, down)
//	(v, down) --down-link--> (w, down)
//
// We run a BFS on the reversed transition graph starting from both
// terminal states (t, up) and (t, down). queue is scratch with capacity
// for all 2·N states, each of which is enqueued at most once.
func (ud *UpDown) backwardDistances(t int, db [2][]int, queue []bfsState) {
	n := ud.net.Switches()
	const inf = int(^uint(0) >> 1)
	for v := 0; v < n; v++ {
		db[phaseUp][v] = inf
		db[phaseDown][v] = inf
	}
	db[phaseUp][t] = 0
	db[phaseDown][t] = 0
	queue = append(queue[:0], bfsState{t, phaseUp}, bfsState{t, phaseDown})
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		d := db[cur.p][cur.v]
		// Find predecessors (u, pu) with a forward transition to cur.
		for _, u := range ud.net.Neighbors(cur.v) {
			up := ud.IsUp(u, cur.v) // direction of the u→v move
			switch {
			case cur.p == phaseUp && up:
				// (u, up) --up--> (v, up)
				if db[phaseUp][u] == inf {
					db[phaseUp][u] = d + 1
					queue = append(queue, bfsState{u, phaseUp})
				}
			case cur.p == phaseDown && !up:
				// (u, up) --down--> (v, down) and (u, down) --down--> (v, down)
				if db[phaseUp][u] == inf {
					db[phaseUp][u] = d + 1
					queue = append(queue, bfsState{u, phaseUp})
				}
				if db[phaseDown][u] == inf {
					db[phaseDown][u] = d + 1
					queue = append(queue, bfsState{u, phaseDown})
				}
			}
		}
	}
	// A message in the up phase may equivalently be "already descending"
	// with a shorter remaining distance via down links only; ensure
	// db[up] <= db[down] (taking a down link from the up phase is legal).
	for v := 0; v < n; v++ {
		if db[phaseDown][v] < db[phaseUp][v] {
			db[phaseUp][v] = db[phaseDown][v]
		}
	}
}

// appendAdmissibleHops appends to out the neighbor moves from (s, p) that
// stay on a minimal-length legal route to t.
func (ud *UpDown) appendAdmissibleHops(out []Hop, s, t, p int, db [2][]int) []Hop {
	if s == t {
		return out
	}
	want := db[p][s] - 1
	for _, v := range ud.net.Neighbors(s) {
		up := ud.IsUp(s, v)
		if p == phaseUp && up {
			if db[phaseUp][v] == want {
				out = append(out, Hop{To: v, Descending: false})
			}
			continue
		}
		if !up { // down move, legal from both phases
			if db[phaseDown][v] == want {
				out = append(out, Hop{To: v, Descending: true})
			}
		}
	}
	return out
}

// AppendPathLinks appends to dst the links that lie on at least one legal
// shortest route from s to t — the resistor network of the paper's
// equivalent-distance computation — each once, and returns the extended
// slice.
func (ud *UpDown) AppendPathLinks(dst []topology.Link, s, t int) []topology.Link {
	if s == t {
		return dst
	}
	// Walk the admissible-hop DAG from (s, up) one layer of hops at a time;
	// every traversed move is on a minimal route by construction of the
	// hop table. Each hop lowers the remaining distance by exactly one, so
	// a state can recur only within its own layer, and states are
	// deduplicated against that layer alone. Route subgraphs are small, so
	// the layers live in stack buffers, and links are deduplicated by a
	// scan of what this call appended.
	type state struct {
		v    int
		down bool
	}
	var stateBuf [2][16]state
	layer, next := append(stateBuf[0][:0], state{s, false}), stateBuf[1][:0]
	base := len(dst)
	for len(layer) > 0 {
		next = next[:0]
		for _, st := range layer {
			for _, h := range ud.NextHops(st.v, t, st.down) {
				if l := topology.NormalizeLink(st.v, h.To); !slices.Contains(dst[base:], l) {
					dst = append(dst, l)
				}
				if ns := (state{h.To, h.Descending}); h.To != t && !slices.Contains(next, ns) {
					next = append(next, ns)
				}
			}
		}
		layer, next = next, layer
	}
	return dst
}

// CountShortestLegalPaths returns the number of distinct minimal legal
// routes from s to t without enumerating them (dynamic programming over
// the admissible-hop DAG). The count is the path-multiplicity signal the
// equivalent-distance model captures and plain hop counts discard.
func (ud *UpDown) CountShortestLegalPaths(s, t int) int {
	if s == t {
		return 1
	}
	type state struct {
		v    int
		down bool
	}
	memo := map[state]int{}
	var count func(st state) int
	count = func(st state) int {
		if st.v == t {
			return 1
		}
		if c, ok := memo[st]; ok {
			return c
		}
		memo[st] = 0 // admissible-hop DAG is acyclic; 0 guards misuse
		total := 0
		for _, h := range ud.NextHops(st.v, t, st.down) {
			total += count(state{h.To, h.Descending})
		}
		memo[st] = total
		return total
	}
	return count(state{s, false})
}

// ShortestLegalPaths enumerates every distinct minimal legal route from s
// to t as switch sequences. Intended for tests and small networks; the
// number of routes can grow combinatorially.
func (ud *UpDown) ShortestLegalPaths(s, t int) [][]int {
	if s == t {
		return [][]int{{s}}
	}
	var out [][]int
	var walk func(v int, down bool, path []int)
	walk = func(v int, down bool, path []int) {
		if v == t {
			cp := make([]int, len(path))
			copy(cp, path)
			out = append(out, cp)
			return
		}
		for _, h := range ud.NextHops(v, t, down) {
			walk(h.To, h.Descending, append(path, h.To))
		}
	}
	walk(s, false, []int{s})
	return out
}
