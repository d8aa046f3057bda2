// Package traffic generates the workloads the paper's evaluation drives
// the simulator with: every host (one process per processor) injects
// fixed-size messages under a Bernoulli process, and destinations follow a
// pattern — the paper's pattern is uniform over the host's own logical
// cluster (100 % intra-cluster traffic).
//
// Additional patterns (global uniform and an intra/inter mix) support the
// future-work extensions the paper lists (traffic that is not fully
// intra-cluster).
package traffic

import (
	"fmt"
	"math/rand"

	"commsched/internal/mapping"
)

// Pattern selects a destination host for a message generated at src.
// Implementations must never return src itself and must be deterministic
// given the rng state.
type Pattern interface {
	// Destination draws a destination host for a message from src.
	Destination(src int, rng *rand.Rand) int
	// Name identifies the pattern in reports.
	Name() string
}

// IntraCluster sends every message to a uniformly chosen peer in the
// sender's own logical cluster — the paper's workload.
type IntraCluster struct {
	pm *mapping.ProcessMap
}

// NewIntraCluster builds the paper's intra-cluster pattern from a process
// map. Every cluster must hold at least two hosts, otherwise a host would
// have no legal destination.
func NewIntraCluster(pm *mapping.ProcessMap) (*IntraCluster, error) {
	for c := 0; c < pm.Clusters(); c++ {
		if len(pm.ClusterHosts(c)) < 2 {
			return nil, fmt.Errorf("traffic: cluster %d has %d hosts; intra-cluster traffic needs >= 2", c, len(pm.ClusterHosts(c)))
		}
	}
	return &IntraCluster{pm: pm}, nil
}

// Destination implements Pattern.
func (p *IntraCluster) Destination(src int, rng *rand.Rand) int {
	peers := p.pm.ClusterHosts(p.pm.HostCluster(src))
	for {
		d := peers[rng.Intn(len(peers))]
		if d != src {
			return d
		}
	}
}

// Name implements Pattern.
func (p *IntraCluster) Name() string { return "intra-cluster" }

// Uniform sends to a uniformly random other host in the whole machine.
type Uniform struct {
	hosts int
}

// NewUniform builds a global uniform pattern over `hosts` hosts (>= 2).
func NewUniform(hosts int) (*Uniform, error) {
	if hosts < 2 {
		return nil, fmt.Errorf("traffic: uniform pattern needs >= 2 hosts, got %d", hosts)
	}
	return &Uniform{hosts: hosts}, nil
}

// Destination implements Pattern.
func (p *Uniform) Destination(src int, rng *rand.Rand) int {
	for {
		d := rng.Intn(p.hosts)
		if d != src {
			return d
		}
	}
}

// Name implements Pattern.
func (p *Uniform) Name() string { return "uniform" }

// Mixed interpolates between the paper's pure intra-cluster pattern and
// global uniform traffic: each message is intra-cluster with probability
// IntraFraction — the paper's future-work scenario of imperfectly
// clustered applications.
type Mixed struct {
	intra         Pattern
	uniform       Pattern
	intraFraction float64
}

// NewMixed builds the mixture pattern.
func NewMixed(intra, uniform Pattern, intraFraction float64) (*Mixed, error) {
	if intraFraction < 0 || intraFraction > 1 {
		return nil, fmt.Errorf("traffic: intra fraction %v out of [0,1]", intraFraction)
	}
	return &Mixed{intra: intra, uniform: uniform, intraFraction: intraFraction}, nil
}

// Destination implements Pattern.
func (p *Mixed) Destination(src int, rng *rand.Rand) int {
	if rng.Float64() < p.intraFraction {
		return p.intra.Destination(src, rng)
	}
	return p.uniform.Destination(src, rng)
}

// Name implements Pattern.
func (p *Mixed) Name() string { return fmt.Sprintf("mixed-%.0f%%-intra", p.intraFraction*100) }
