package routing

import (
	"fmt"
	"sort"
)

// Channel is a directed physical channel (one direction of a link) in the
// channel dependency graph.
type Channel struct {
	From, To int
}

// DepGraph is the channel dependency graph of a routing algorithm on a
// network: an edge c1 → c2 means some message may hold c1 while requesting
// c2. By Dally & Seitz / Duato's theory, wormhole routing is deadlock-free
// when this graph is acyclic.
type DepGraph struct {
	channels []Channel
	index    map[Channel]int
	adj      [][]int
}

// newDepGraph builds an empty graph over the given channels.
func newDepGraph(channels []Channel) *DepGraph {
	g := &DepGraph{
		channels: channels,
		index:    make(map[Channel]int, len(channels)),
		adj:      make([][]int, len(channels)),
	}
	for i, c := range channels {
		g.index[c] = i
	}
	return g
}

// addDep records a dependency c1 → c2. Unknown channels panic: they
// indicate a bug in the graph construction, not bad input.
func (g *DepGraph) addDep(c1, c2 Channel) {
	i, ok := g.index[c1]
	if !ok {
		panic(fmt.Sprintf("routing: unknown channel %v", c1))
	}
	j, ok := g.index[c2]
	if !ok {
		panic(fmt.Sprintf("routing: unknown channel %v", c2))
	}
	g.adj[i] = append(g.adj[i], j)
}

// Channels returns the channel set, in construction order.
func (g *DepGraph) Channels() []Channel {
	out := make([]Channel, len(g.channels))
	copy(out, g.channels)
	return out
}

// Cycle returns one directed cycle as a channel sequence (first == last),
// or nil when the graph is acyclic. Used to exhibit the deadlock a broken
// routing function would allow.
func (g *DepGraph) Cycle() []Channel {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.channels))
	parent := make([]int, len(g.channels))
	for i := range parent {
		parent[i] = -1
	}
	var cycle []Channel
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, v := range g.adj[u] {
			if color[v] == gray {
				// Reconstruct u → … → v → u backwards.
				cycle = []Channel{g.channels[v]}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, g.channels[x])
				}
				cycle = append(cycle, g.channels[v])
				// Reverse into forward order.
				for l, r := 0, len(cycle)-1; l < r; l, r = l+1, r-1 {
					cycle[l], cycle[r] = cycle[r], cycle[l]
				}
				return true
			}
			if color[v] == white {
				parent[v] = u
				if dfs(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for i := range g.channels {
		if color[i] == white && dfs(i) {
			return cycle
		}
	}
	return nil
}

// allChannels enumerates both directions of every link, deterministically
// ordered.
func allChannels(links []Channel) []Channel {
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	return links
}

// ChannelDependencyGraph builds the dependency graph induced by up*/down*
// routing: a message arriving at v on channel (u,v) is ascending when the
// link was traversed upward and descending otherwise, and may request any
// admissible next hop toward any destination.
func (ud *UpDown) ChannelDependencyGraph() *DepGraph {
	n := ud.net.Switches()
	var chans []Channel
	for _, l := range ud.net.Links() {
		chans = append(chans, Channel{l.A, l.B}, Channel{l.B, l.A})
	}
	g := newDepGraph(allChannels(chans))
	for _, c := range g.Channels() {
		descending := !ud.IsUp(c.From, c.To)
		for t := 0; t < n; t++ {
			if t == c.To {
				continue
			}
			for _, h := range ud.NextHops(c.To, t, descending) {
				g.addDep(c, Channel{c.To, h.To})
			}
		}
	}
	return g
}

// VerifyDeadlockFree checks the Dally & Seitz condition on the up*/down*
// channel dependency graph and returns an error exhibiting a dependency
// cycle if one exists. Up*/down* is deadlock-free by construction, so a
// failure here indicates a corrupted routing structure (e.g. built on a
// mutated topology); degraded-mode callers use it as a safety net before
// committing to a re-derived routing.
func (ud *UpDown) VerifyDeadlockFree() error {
	g := ud.ChannelDependencyGraph()
	if cyc := g.Cycle(); cyc != nil {
		return fmt.Errorf("routing: up*/down* channel dependency cycle on %s (root %d): %v",
			ud.net.Name(), ud.root, cyc)
	}
	return nil
}

// ChannelDependencyGraph builds the dependency graph of unrestricted
// minimal-path routing: a message that used channel (u,v) en route to t
// (that is, v is closer to t than u) may request any channel (v,w) that
// continues a minimal path. On cyclic topologies this graph has cycles —
// the deadlock hazard up*/down* exists to remove.
func (sp *ShortestPath) ChannelDependencyGraph() *DepGraph {
	n := sp.net.Switches()
	var chans []Channel
	for _, l := range sp.net.Links() {
		chans = append(chans, Channel{l.A, l.B}, Channel{l.B, l.A})
	}
	g := newDepGraph(allChannels(chans))
	for _, c := range g.Channels() {
		for t := 0; t < n; t++ {
			if t == c.To {
				continue
			}
			// Channel used toward t?
			if sp.dist[c.From][t] != sp.dist[c.To][t]+1 {
				continue
			}
			for _, h := range sp.NextHops(c.To, t) {
				g.addDep(c, Channel{c.To, h.To})
			}
		}
	}
	return g
}
