// Package strategy implements the paper's Section 1 vision of an "ideal
// scheduling strategy" for heterogeneous systems: given the applications'
// computational and communication requirements, it estimates which
// resource is the system bottleneck and chooses either a
// computation-aware mapping (meta-task heuristics over machines of
// different computing power) or the paper's communication-aware mapping
// (process-level Tabu over the table of equivalent distances).
//
// The paper leaves this integration as future work; this package builds
// the simplest credible version: utilization-based bottleneck detection
// plus dispatch to the two scheduler families implemented in this module.
package strategy

import (
	"context"
	"fmt"
	"math/rand"

	"commsched/internal/distance"
	"commsched/internal/metatask"
	"commsched/internal/procsched"
	"commsched/internal/routing"
	"commsched/internal/topology"
)

// Application describes one parallel application's requirements.
type Application struct {
	// Name labels the application in reports.
	Name string
	// Processes is the number of processes (one processor each).
	Processes int
	// CPUDemand is the compute work per process, in normalized work units.
	CPUDemand float64
	// CommIntensity is the traffic each process offers, in
	// flits/cycle/process.
	CommIntensity float64
}

// System is a heterogeneous NOW: a characterized network plus per-host
// relative computing power (the heterogeneity the paper's title is about).
type System struct {
	Net *topology.Network
	// Routing and Table characterize the communication substrate.
	Routing *routing.UpDown
	Table   *distance.Table
	// HostSpeed is each workstation's relative computing power (> 0).
	HostSpeed []float64
}

// NewSystem builds and validates a heterogeneous system. A nil hostSpeed
// means a homogeneous machine (all speeds 1).
func NewSystem(net *topology.Network, rt *routing.UpDown, tab *distance.Table, hostSpeed []float64) (*System, error) {
	if tab.N() != net.Switches() {
		return nil, fmt.Errorf("strategy: table covers %d switches, network has %d", tab.N(), net.Switches())
	}
	if hostSpeed == nil {
		hostSpeed = make([]float64, net.Hosts())
		for i := range hostSpeed {
			hostSpeed[i] = 1
		}
	}
	if len(hostSpeed) != net.Hosts() {
		return nil, fmt.Errorf("strategy: %d host speeds for %d hosts", len(hostSpeed), net.Hosts())
	}
	for h, s := range hostSpeed {
		if s <= 0 {
			return nil, fmt.Errorf("strategy: host %d has non-positive speed %v", h, s)
		}
	}
	return &System{Net: net, Routing: rt, Table: tab, HostSpeed: hostSpeed}, nil
}

// Bottleneck identifies the limiting resource.
type Bottleneck int

const (
	// CPUBound means the processors saturate before the network.
	CPUBound Bottleneck = iota
	// NetworkBound means the interconnect saturates first.
	NetworkBound
)

// String renders the bottleneck kind.
func (b Bottleneck) String() string {
	if b == NetworkBound {
		return "network-bound"
	}
	return "cpu-bound"
}

// Analysis is the bottleneck estimate for an application mix.
type Analysis struct {
	// CPUUtilization is total demanded work per unit time divided by the
	// machine's aggregate computing power.
	CPUUtilization float64
	// NetworkUtilization is the estimated aggregate link load divided by
	// the aggregate link bandwidth.
	NetworkUtilization float64
	// Bottleneck is the larger of the two.
	Bottleneck Bottleneck
}

// Analyze estimates both utilizations. The network estimate multiplies
// each application's offered flit rate by the network's mean legal route
// length (every flit occupies one link per hop) and divides by the total
// directed-link bandwidth — the standard back-of-envelope capacity model.
func (s *System) Analyze(apps []Application) (*Analysis, error) {
	if err := s.validateApps(apps); err != nil {
		return nil, err
	}
	totalSpeed := 0.0
	for _, sp := range s.HostSpeed {
		totalSpeed += sp
	}
	demand, offered := 0.0, 0.0
	for _, a := range apps {
		demand += float64(a.Processes) * a.CPUDemand
		offered += float64(a.Processes) * a.CommIntensity
	}
	n := s.Net.Switches()
	meanHops, pairs := 0.0, 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				meanHops += float64(s.Routing.Distance(i, j))
				pairs++
			}
		}
	}
	if pairs > 0 {
		meanHops /= float64(pairs)
	}
	linkBandwidth := float64(2 * s.Net.NumLinks()) // one flit/cycle per direction
	an := &Analysis{
		CPUUtilization: demand / totalSpeed,
	}
	if linkBandwidth > 0 {
		an.NetworkUtilization = offered * meanHops / linkBandwidth
	}
	if an.NetworkUtilization > an.CPUUtilization {
		an.Bottleneck = NetworkBound
	}
	return an, nil
}

func (s *System) validateApps(apps []Application) error {
	if len(apps) == 0 {
		return fmt.Errorf("strategy: no applications")
	}
	total := 0
	for i, a := range apps {
		if a.Processes < 1 {
			return fmt.Errorf("strategy: application %d has %d processes", i, a.Processes)
		}
		if a.CPUDemand < 0 || a.CommIntensity < 0 {
			return fmt.Errorf("strategy: application %d has negative requirements", i)
		}
		total += a.Processes
	}
	if total > s.Net.Hosts() {
		return fmt.Errorf("strategy: %d processes exceed %d processors", total, s.Net.Hosts())
	}
	return nil
}

// Placement is a unified scheduling outcome.
type Placement struct {
	// HostOf maps the global process index (applications concatenated in
	// order) to its processor.
	HostOf []int
	// ClusterOf maps the global process index to its application.
	ClusterOf []int
	// Analysis is the bottleneck estimate that drove the choice.
	Analysis Analysis
	// Scheduler names the mapping technique used.
	Scheduler string
}

// Schedule analyzes the mix and dispatches: network-bound mixes get the
// paper's communication-aware process-level Tabu; CPU-bound mixes get the
// MCT meta-task heuristic over the heterogeneous processors (ETC built
// from CPUDemand / HostSpeed).
func (s *System) Schedule(apps []Application, seed int64) (*Placement, error) {
	an, err := s.Analyze(apps)
	if err != nil {
		return nil, err
	}
	clusterOf := make([]int, 0)
	for c, a := range apps {
		for i := 0; i < a.Processes; i++ {
			clusterOf = append(clusterOf, c)
		}
	}
	pl := &Placement{ClusterOf: clusterOf, Analysis: *an}
	if an.Bottleneck == NetworkBound {
		pr, err := procsched.NewProblem(s.Net, s.Table, clusterOf, 1)
		if err != nil {
			return nil, err
		}
		res, err := procsched.Search(context.TODO(), pr, procsched.NewTabu(), rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		pl.HostOf = res.Best.HostOf
		pl.Scheduler = "communication-aware-tabu"
		return pl, nil
	}
	// CPU-bound: meta-task MCT with one slot per processor.
	time := make([][]float64, len(clusterOf))
	for p := range time {
		row := make([]float64, s.Net.Hosts())
		demand := apps[clusterOf[p]].CPUDemand
		if demand <= 0 {
			demand = 1e-9 // pure-communication process: negligible work
		}
		for h := 0; h < s.Net.Hosts(); h++ {
			row[h] = demand / s.HostSpeed[h]
		}
		time[p] = row
	}
	etc, err := metatask.NewETC(time)
	if err != nil {
		return nil, err
	}
	sched := metatask.MCT{}.Map(etc)
	// MCT may stack several processes on one machine; with one process
	// per processor required, spill overflow to the fastest free hosts.
	pl.HostOf, err = onePerHost(sched.MachineOf, s.HostSpeed)
	if err != nil {
		return nil, err
	}
	pl.Scheduler = "computation-aware-mct"
	return pl, nil
}

// onePerHost enforces the one-process-per-processor constraint: processes
// keep their MCT machine when free, otherwise they move to the fastest
// still-free host.
func onePerHost(machineOf []int, speed []float64) ([]int, error) {
	if len(machineOf) > len(speed) {
		return nil, fmt.Errorf("strategy: %d processes, %d processors", len(machineOf), len(speed))
	}
	used := make([]bool, len(speed))
	out := make([]int, len(machineOf))
	var overflow []int
	for p, m := range machineOf {
		if !used[m] {
			used[m] = true
			out[p] = m
			continue
		}
		overflow = append(overflow, p)
	}
	for _, p := range overflow {
		best := -1
		for h := range speed {
			if used[h] {
				continue
			}
			if best < 0 || speed[h] > speed[best] {
				best = h
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("strategy: ran out of processors")
		}
		used[best] = true
		out[p] = best
	}
	return out, nil
}
