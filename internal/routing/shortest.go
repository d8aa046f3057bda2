package routing

import (
	"commsched/internal/topology"
)

// ShortestPath is a PathProvider that supplies all minimal topological
// paths, ignoring routing restrictions. It is the ablation baseline that
// quantifies how much of the distance table's structure comes from the
// up*/down* restriction versus the raw topology.
type ShortestPath struct {
	net   *topology.Network
	links []topology.Link // the network's links, copied once
	dist  [][]int         // dist[s][t] = BFS hop distance
}

// NewShortestPath precomputes all-pairs BFS distances.
func NewShortestPath(net *topology.Network) *ShortestPath {
	n := net.Switches()
	sp := &ShortestPath{net: net, links: net.Links(), dist: make([][]int, n)}
	for s := 0; s < n; s++ {
		sp.dist[s] = net.BFSDistances(s)
	}
	return sp
}

// Distance returns the hop distance between s and t.
func (sp *ShortestPath) Distance(s, t int) int { return sp.dist[s][t] }

// AppendPathLinks appends to dst the links on at least one minimal path
// from s to t and returns the extended slice: link (u,v) qualifies iff
// d(s,u) + 1 + d(v,t) == d(s,t) in either direction.
func (sp *ShortestPath) AppendPathLinks(dst []topology.Link, s, t int) []topology.Link {
	if s == t {
		return dst
	}
	d := sp.dist[s][t]
	for _, l := range sp.links {
		if sp.dist[s][l.A]+1+sp.dist[l.B][t] == d || sp.dist[s][l.B]+1+sp.dist[l.A][t] == d {
			dst = append(dst, l)
		}
	}
	return dst
}

// NextHops returns the neighbors of s that advance toward t along a
// minimal path. Unlike up*/down*, phase does not matter; Descending is
// always reported false.
func (sp *ShortestPath) NextHops(s, t int) []Hop {
	if s == t {
		return nil
	}
	var out []Hop
	for _, v := range sp.net.Neighbors(s) {
		if sp.dist[v][t] == sp.dist[s][t]-1 {
			out = append(out, Hop{To: v})
		}
	}
	return out
}
