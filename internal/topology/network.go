// Package topology models the switch-based interconnection networks the
// paper evaluates: irregular random topologies built from fixed-size
// switches with workstations attached, the specially designed
// rings-of-switches topology of Figure 4, and a few regular topologies
// (ring, mesh, torus, hypercube) used to show the technique applies to
// regular networks too.
//
// Terminology follows the paper: a "node" is a switching element; each
// switch has a fixed number of ports, some connected to hosts
// (workstations) and some to other switches. Two neighboring switches are
// connected by a single link and links are bidirectional (full duplex).
package topology

import (
	"fmt"
	"math/rand"
	"sort"
)

// Default switch parameters used throughout the paper's evaluation
// (Section 5.1): 8-port switches with 4 workstations attached, leaving 4
// ports for inter-switch links of which 3 are used by the generator.
const (
	DefaultPorts          = 8
	DefaultHostsPerSwitch = 4
	DefaultSwitchDegree   = 3
)

// Link is an undirected link between two switches. Invariant: A < B.
type Link struct {
	A, B int
}

// NormalizeLink returns the canonical (A<B) form of a link between u and v.
func NormalizeLink(u, v int) Link {
	if u > v {
		u, v = v, u
	}
	return Link{A: u, B: v}
}

// Network is an immutable switch-level interconnection network.
type Network struct {
	name           string
	switches       int
	hostsPerSwitch int
	ports          int
	links          []Link  // sorted, canonical, no duplicates
	adj            [][]int // adjacency lists, each sorted ascending
}

// Config carries the per-switch parameters of a network.
type Config struct {
	// Ports is the total port count of every switch (default 8).
	Ports int
	// HostsPerSwitch is the number of workstations attached to every
	// switch (default 4).
	HostsPerSwitch int
}

func (c Config) withDefaults() Config {
	if c.Ports == 0 {
		c.Ports = DefaultPorts
	}
	if c.HostsPerSwitch == 0 {
		c.HostsPerSwitch = DefaultHostsPerSwitch
	}
	return c
}

// New builds a network with the given number of switches and inter-switch
// links. It validates the paper's structural constraints:
//   - switch indices in range,
//   - no self links,
//   - a single link between any pair of neighboring switches,
//   - switch degree + hosts must fit in the port count.
func New(name string, switches int, links []Link, cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if switches <= 0 {
		return nil, fmt.Errorf("topology: network needs at least one switch, got %d", switches)
	}
	if cfg.HostsPerSwitch < 0 || cfg.Ports <= 0 {
		return nil, fmt.Errorf("topology: invalid config %+v", cfg)
	}
	seen := make(map[Link]bool, len(links))
	canon := make([]Link, 0, len(links))
	deg := make([]int, switches)
	for _, l := range links {
		if l.A == l.B {
			return nil, fmt.Errorf("topology: self link at switch %d", l.A)
		}
		if l.A < 0 || l.A >= switches || l.B < 0 || l.B >= switches {
			return nil, fmt.Errorf("topology: link %v out of range (switches=%d)", l, switches)
		}
		c := NormalizeLink(l.A, l.B)
		if seen[c] {
			return nil, fmt.Errorf("topology: duplicate link between switches %d and %d", c.A, c.B)
		}
		seen[c] = true
		canon = append(canon, c)
		deg[c.A]++
		deg[c.B]++
	}
	maxDeg := cfg.Ports - cfg.HostsPerSwitch
	for s, d := range deg {
		if d > maxDeg {
			return nil, fmt.Errorf("topology: switch %d has degree %d, exceeding the %d ports left by %d hosts on a %d-port switch",
				s, d, maxDeg, cfg.HostsPerSwitch, cfg.Ports)
		}
	}
	sort.Slice(canon, func(i, j int) bool {
		if canon[i].A != canon[j].A {
			return canon[i].A < canon[j].A
		}
		return canon[i].B < canon[j].B
	})
	adj := make([][]int, switches)
	for _, l := range canon {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	for _, ns := range adj {
		sort.Ints(ns)
	}
	return &Network{
		name:           name,
		switches:       switches,
		hostsPerSwitch: cfg.HostsPerSwitch,
		ports:          cfg.Ports,
		links:          canon,
		adj:            adj,
	}, nil
}

// Name returns the human-readable topology name ("irregular-16/seed42", …).
func (n *Network) Name() string { return n.name }

// Switches returns the number of switching elements.
func (n *Network) Switches() int { return n.switches }

// Hosts returns the total number of workstations in the network.
func (n *Network) Hosts() int { return n.switches * n.hostsPerSwitch }

// HostsPerSwitch returns the number of workstations attached to each switch.
func (n *Network) HostsPerSwitch() int { return n.hostsPerSwitch }

// Ports returns the port count of each switch.
func (n *Network) Ports() int { return n.ports }

// Links returns a copy of the canonical link list.
func (n *Network) Links() []Link {
	out := make([]Link, len(n.links))
	copy(out, n.links)
	return out
}

// NumLinks returns the number of inter-switch links.
func (n *Network) NumLinks() int { return len(n.links) }

// Neighbors returns the sorted neighbor list of switch s. The returned
// slice must not be modified.
func (n *Network) Neighbors(s int) []int { return n.adj[s] }

// Degree returns the number of inter-switch links at switch s.
func (n *Network) Degree(s int) int { return len(n.adj[s]) }

// HasLink reports whether switches u and v are directly connected.
func (n *Network) HasLink(u, v int) bool {
	if u == v {
		return false
	}
	for _, w := range n.adj[u] {
		if w == v {
			return true
		}
		if w > v {
			break
		}
	}
	return false
}

// HostSwitch returns the switch a workstation is attached to. Hosts are
// numbered so that switch s carries hosts [s*H, (s+1)*H).
func (n *Network) HostSwitch(host int) int {
	if host < 0 || host >= n.Hosts() {
		panic(fmt.Sprintf("topology: host %d out of range [0,%d)", host, n.Hosts()))
	}
	return host / n.hostsPerSwitch
}

// SwitchHosts returns the workstation IDs attached to switch s.
func (n *Network) SwitchHosts(s int) []int {
	if s < 0 || s >= n.switches {
		panic(fmt.Sprintf("topology: switch %d out of range [0,%d)", s, n.switches))
	}
	out := make([]int, n.hostsPerSwitch)
	for i := range out {
		out[i] = s*n.hostsPerSwitch + i
	}
	return out
}

// BFSDistances returns hop distances from src to every switch (-1 where
// unreachable).
func (n *Network) BFSDistances(src int) []int {
	dist := make([]int, n.switches)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 1, n.switches) // each switch is queued at most once
	queue[0] = src
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range n.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Connected reports whether every switch is reachable from switch 0.
func (n *Network) Connected() bool {
	for _, d := range n.BFSDistances(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// Diameter returns the longest shortest-path hop distance between any pair
// of switches, or -1 if the network is disconnected.
func (n *Network) Diameter() int {
	diam := 0
	for s := 0; s < n.switches; s++ {
		for _, d := range n.BFSDistances(s) {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// AverageDegree returns the mean inter-switch degree.
func (n *Network) AverageDegree() float64 {
	if n.switches == 0 {
		return 0
	}
	return 2 * float64(len(n.links)) / float64(n.switches)
}

// DegreeHistogram returns a map degree -> number of switches with that
// degree.
func (n *Network) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for s := 0; s < n.switches; s++ {
		h[len(n.adj[s])]++
	}
	return h
}

// EstimateBisectionWidth returns an upper-bound estimate of the bisection
// width: the minimum cut over `trials` random balanced bipartitions, each
// improved by greedy single-swap descent. Exact bisection width is
// NP-hard; this estimator is the standard quick proxy used when
// characterizing interconnection networks.
func (n *Network) EstimateBisectionWidth(rng *rand.Rand, trials int) int {
	if n.switches < 2 {
		return 0
	}
	if trials < 1 {
		trials = 1
	}
	best := len(n.links) + 1
	half := n.switches / 2
	for trial := 0; trial < trials; trial++ {
		perm := rng.Perm(n.switches)
		side := make([]int, n.switches)
		for i, s := range perm {
			if i < half {
				side[s] = 1
			}
		}
		cut := n.CutLinks(side)
		// Greedy descent: best swap of one switch from each side.
		improved := true
		for improved {
			improved = false
			for u := 0; u < n.switches && !improved; u++ {
				for v := u + 1; v < n.switches; v++ {
					if side[u] == side[v] {
						continue
					}
					side[u], side[v] = side[v], side[u]
					if c := n.CutLinks(side); c < cut {
						cut = c
						improved = true
						break
					}
					side[u], side[v] = side[v], side[u]
				}
			}
		}
		if cut < best {
			best = cut
		}
	}
	return best
}

// CutLinks counts the links whose endpoints carry different labels under
// the given switch labeling (e.g. a cluster assignment) — the raw
// topological cut a mapping induces. It panics when the labeling does not
// cover every switch.
func (n *Network) CutLinks(labels []int) int {
	if len(labels) != n.switches {
		panic(fmt.Sprintf("topology: labeling covers %d switches, network has %d", len(labels), n.switches))
	}
	cut := 0
	for _, l := range n.links {
		if labels[l.A] != labels[l.B] {
			cut++
		}
	}
	return cut
}
