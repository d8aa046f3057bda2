// Package procsched generalizes the paper's scheduling technique past its
// Section 4 simplifying assumptions — the future work of Section 6: it
// maps individual processes to processors (hosts), allowing several
// processes per processor, logical clusters of arbitrary sizes (no
// multiple-of-switch constraint), and co-location. Co-located processes
// communicate off the network, so the objective naturally rewards packing
// a cluster onto as few, and as well-connected, switches as possible.
//
// The objective is the process-level analogue of the paper's similarity
// function: the sum over intra-cluster process pairs of the squared
// equivalent distance between the switches hosting them (zero when they
// share a switch).
package procsched

import (
	"fmt"
	"math/rand"

	"commsched/internal/distance"
	"commsched/internal/topology"
)

// Problem is one process-placement instance.
type Problem struct {
	// Net is the target network.
	Net *topology.Network
	// Table is the equivalent-distance table for Net.
	Table *distance.Table
	// ClusterOf assigns every process to its logical cluster; clusters
	// must be numbered 0..max contiguously.
	ClusterOf []int
	// SlotsPerHost is the multiprogramming level of every processor
	// (>= 1). SlotsPerHost 1 is the paper's one-process-per-processor
	// setting.
	SlotsPerHost int

	clusters int
	t2       [][]float64
}

// NewProblem validates the instance and precomputes squared distances.
func NewProblem(net *topology.Network, tab *distance.Table, clusterOf []int, slotsPerHost int) (*Problem, error) {
	if tab.N() != net.Switches() {
		return nil, fmt.Errorf("procsched: table covers %d switches, network has %d", tab.N(), net.Switches())
	}
	if slotsPerHost < 1 {
		return nil, fmt.Errorf("procsched: need >= 1 slot per host, got %d", slotsPerHost)
	}
	if len(clusterOf) == 0 {
		return nil, fmt.Errorf("procsched: no processes")
	}
	capacity := net.Hosts() * slotsPerHost
	if len(clusterOf) > capacity {
		return nil, fmt.Errorf("procsched: %d processes exceed capacity %d (%d hosts × %d slots)",
			len(clusterOf), capacity, net.Hosts(), slotsPerHost)
	}
	maxC := -1
	for p, c := range clusterOf {
		if c < 0 {
			return nil, fmt.Errorf("procsched: process %d has negative cluster %d", p, c)
		}
		if c > maxC {
			maxC = c
		}
	}
	seen := make([]bool, maxC+1)
	for _, c := range clusterOf {
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("procsched: cluster %d has no processes (clusters must be contiguous)", c)
		}
	}
	n := net.Switches()
	t2 := make([][]float64, n)
	for i := 0; i < n; i++ {
		t2[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			d := tab.At(i, j)
			t2[i][j] = d * d
		}
	}
	return &Problem{
		Net:          net,
		Table:        tab,
		ClusterOf:    append([]int(nil), clusterOf...),
		SlotsPerHost: slotsPerHost,
		clusters:     maxC + 1,
		t2:           t2,
	}, nil
}

// Processes returns the process count.
func (pr *Problem) Processes() int { return len(pr.ClusterOf) }

// Clusters returns the number of logical clusters.
func (pr *Problem) Clusters() int { return pr.clusters }

// Assignment places every process on a host.
type Assignment struct {
	// HostOf maps process -> host.
	HostOf []int
	// load[h] = processes on host h.
	load []int
}

// NewAssignment validates an explicit placement against the problem.
func (pr *Problem) NewAssignment(hostOf []int) (*Assignment, error) {
	if len(hostOf) != pr.Processes() {
		return nil, fmt.Errorf("procsched: placement covers %d processes, problem has %d", len(hostOf), pr.Processes())
	}
	load := make([]int, pr.Net.Hosts())
	for p, h := range hostOf {
		if h < 0 || h >= pr.Net.Hosts() {
			return nil, fmt.Errorf("procsched: process %d on host %d, want [0,%d)", p, h, pr.Net.Hosts())
		}
		load[h]++
		if load[h] > pr.SlotsPerHost {
			return nil, fmt.Errorf("procsched: host %d over capacity (%d slots)", h, pr.SlotsPerHost)
		}
	}
	return &Assignment{HostOf: append([]int(nil), hostOf...), load: load}, nil
}

// RandomAssignment places processes on uniformly chosen free slots.
func (pr *Problem) RandomAssignment(rng *rand.Rand) *Assignment {
	slots := make([]int, 0, pr.Net.Hosts()*pr.SlotsPerHost)
	for h := 0; h < pr.Net.Hosts(); h++ {
		for s := 0; s < pr.SlotsPerHost; s++ {
			slots = append(slots, h)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	a := &Assignment{HostOf: make([]int, pr.Processes()), load: make([]int, pr.Net.Hosts())}
	for p := 0; p < pr.Processes(); p++ {
		a.HostOf[p] = slots[p]
		a.load[slots[p]]++
	}
	return a
}

// Load returns the number of processes on host h.
func (a *Assignment) Load(h int) int { return a.load[h] }

// Cost is the process-level similarity objective: Σ over same-cluster
// process pairs of T²(switch(p), switch(q)).
func (pr *Problem) Cost(a *Assignment) float64 {
	return pr.cost(func(p int) int { return a.HostOf[p] })
}

// cost is the objective over any process→host lookup; Cost and the
// search's slot partition share it.
func (pr *Problem) cost(hostOf func(p int) int) float64 {
	hps := pr.Net.HostsPerSwitch()
	total := 0.0
	for p, cp := range pr.ClusterOf {
		row := pr.t2[hostOf(p)/hps]
		for q := p + 1; q < len(pr.ClusterOf); q++ {
			if pr.ClusterOf[q] == cp {
				total += row[hostOf(q)/hps]
			}
		}
	}
	return total
}
