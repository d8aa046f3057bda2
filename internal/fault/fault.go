// Package fault models deterministic failure scenarios on the paper's
// switch-based networks. Up*/down* routing exists precisely because "some
// nodes or links may fail" in a NOW (Autonet's design premise), yet a
// scheduler that was only ever exercised on healthy topologies panics or
// livelocks the first time a cable is pulled. This package provides the
// static half of the fault story: a Plan is a seeded, reproducible list of
// failure events (permanent link failures, whole-switch failures, and
// transient flaky links with repair times); Apply projects a healthy
// topology.Network into its degraded counterpart, reporting exactly which
// switches and links were lost and how switch IDs were compacted.
//
// The dynamic half — links dying mid-simulation with in-flight flits —
// lives in simnet (Config.LinkEvents); core.System.Degrade glues the two
// together and reschedules mappings onto the degraded system.
//
// Everything here returns explicit errors. Disconnecting the network is a
// legal thing for a fault plan to do; the caller learns which switches
// became unreachable instead of getting a panic three packages later.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"commsched/internal/topology"
)

// Kind classifies a failure event.
type Kind int

const (
	// LinkDown is a permanent failure of one inter-switch link.
	LinkDown Kind = iota
	// SwitchDown is a permanent failure of a whole switching element:
	// every link at the switch dies and its attached workstations drop
	// out of the system.
	SwitchDown
	// FlakyLink is a transient link failure: the link dies at cycle At
	// and returns at cycle RepairAt. With RepairAt == 0 it never heals
	// and is equivalent to LinkDown.
	FlakyLink
)

// String names the kind for error messages and reports.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case SwitchDown:
		return "switch-down"
	case FlakyLink:
		return "flaky-link"
	default:
		return fmt.Sprintf("fault.Kind(%d)", int(k))
	}
}

// Event is one failure in a plan. The zero value is not a valid event;
// build them explicitly or through the Random* generators.
type Event struct {
	// Kind selects the failure type.
	Kind Kind
	// Link is the failing link (LinkDown and FlakyLink).
	Link topology.Link
	// Switch is the failing switch (SwitchDown).
	Switch int
	// At is the simulation cycle the failure strikes; 0 means the fault
	// is already present when the run (or the static analysis) starts.
	At int64
	// RepairAt is the cycle a FlakyLink heals (0 = never).
	RepairAt int64
}

// Permanent reports whether the event holds in the static (post-repair)
// view of the network: everything except a flaky link that heals.
func (e Event) Permanent() bool {
	return e.Kind != FlakyLink || e.RepairAt == 0
}

// Plan is a reproducible failure scenario.
type Plan struct {
	// Name labels the scenario in reports.
	Name string
	// Events lists the failures, in no particular order.
	Events []Event
}

// Degraded is the static post-failure view of a network: the surviving
// switches, compacted into a fresh contiguous ID space so that routing,
// distance tables, and searchers operate on a plain connected
// topology.Network.
type Degraded struct {
	// Net is the degraded network over the surviving switches. When no
	// switch died, its switch IDs coincide with the original ones.
	Net *topology.Network
	// DeadSwitches lists failed switches by original ID, ascending.
	DeadSwitches []int
	// RemovedLinks lists the permanently removed links by original switch
	// IDs (explicit link failures plus all links at dead switches).
	RemovedLinks []topology.Link
	// OldToNew maps original switch IDs to degraded IDs (-1 = dead).
	OldToNew []int
	// NewToOld maps degraded switch IDs back to original IDs.
	NewToOld []int
}

// Identity reports whether switch IDs are unchanged (no switch died), so
// partitions and tables on the original network line up positionally with
// the degraded one.
func (d *Degraded) Identity() bool { return len(d.DeadSwitches) == 0 }

// Apply projects the permanent events of a plan onto a network. It
// validates every event against the topology and returns a descriptive
// error — never a panic — when the plan disconnects the surviving
// switches, kills every switch, or references links/switches that do not
// exist.
func Apply(net *topology.Network, plan Plan) (*Degraded, error) {
	n := net.Switches()
	dead := make([]bool, n)
	removed := map[topology.Link]bool{}
	for i, e := range plan.Events {
		switch e.Kind {
		case LinkDown, FlakyLink:
			l := topology.NormalizeLink(e.Link.A, e.Link.B)
			if l.A < 0 || l.B >= n || !net.HasLink(l.A, l.B) {
				return nil, fmt.Errorf("fault: event %d (%s): link %d-%d does not exist in %s",
					i, e.Kind, e.Link.A, e.Link.B, net.Name())
			}
			if e.Permanent() {
				removed[l] = true
			}
		case SwitchDown:
			if e.Switch < 0 || e.Switch >= n {
				return nil, fmt.Errorf("fault: event %d (%s): switch %d out of range [0,%d)",
					i, e.Kind, e.Switch, n)
			}
			dead[e.Switch] = true
		default:
			return nil, fmt.Errorf("fault: event %d has unknown kind %d", i, int(e.Kind))
		}
		if e.RepairAt != 0 && e.RepairAt <= e.At {
			return nil, fmt.Errorf("fault: event %d (%s): repair cycle %d not after failure cycle %d",
				i, e.Kind, e.RepairAt, e.At)
		}
	}
	// Links at dead switches die with the switch.
	for _, l := range net.Links() {
		if dead[l.A] || dead[l.B] {
			removed[l] = true
		}
	}

	d := &Degraded{OldToNew: make([]int, n)}
	for s := 0; s < n; s++ {
		if dead[s] {
			d.OldToNew[s] = -1
			d.DeadSwitches = append(d.DeadSwitches, s)
			continue
		}
		d.OldToNew[s] = len(d.NewToOld)
		d.NewToOld = append(d.NewToOld, s)
	}
	if len(d.NewToOld) == 0 {
		return nil, fmt.Errorf("fault: plan %q kills every switch of %s", plan.Name, net.Name())
	}
	for l := range removed {
		d.RemovedLinks = append(d.RemovedLinks, l)
	}
	sort.Slice(d.RemovedLinks, func(i, j int) bool {
		if d.RemovedLinks[i].A != d.RemovedLinks[j].A {
			return d.RemovedLinks[i].A < d.RemovedLinks[j].A
		}
		return d.RemovedLinks[i].B < d.RemovedLinks[j].B
	})

	// Surviving links, remapped into the compacted ID space.
	var links []topology.Link
	for _, l := range net.Links() {
		if removed[l] {
			continue
		}
		links = append(links, topology.NormalizeLink(d.OldToNew[l.A], d.OldToNew[l.B]))
	}
	name := net.Name() + "/degraded"
	if plan.Name != "" {
		name = net.Name() + "/" + plan.Name
	}
	deg, err := topology.New(name, len(d.NewToOld), links, topology.Config{
		Ports:          net.Ports(),
		HostsPerSwitch: net.HostsPerSwitch(),
	})
	if err != nil {
		return nil, fmt.Errorf("fault: degraded topology invalid: %w", err)
	}
	if unreachable := unreachableFrom0(deg); len(unreachable) > 0 {
		orig := make([]int, len(unreachable))
		for i, s := range unreachable {
			orig[i] = d.NewToOld[s]
		}
		return nil, fmt.Errorf("fault: plan %q partitions %s: switches %v unreachable from switch %d",
			plan.Name, net.Name(), orig, d.NewToOld[0])
	}
	d.Net = deg
	return d, nil
}

// unreachableFrom0 lists switches a BFS from switch 0 cannot reach.
func unreachableFrom0(net *topology.Network) []int {
	var out []int
	for s, dist := range net.BFSDistances(0) {
		if dist < 0 {
			out = append(out, s)
		}
	}
	return out
}

// PlanSpec parameterizes random plan generation.
type PlanSpec struct {
	// LinkFailures is the number of permanent link failures to inject.
	LinkFailures int
	// SwitchFailures is the number of whole-switch failures to inject.
	SwitchFailures int
	// At stamps every generated event with this failure cycle.
	At int64
}

// RandomPlan draws a connectivity-preserving failure plan: the requested
// number of switch and link failures, sampled with the given rng, such
// that the surviving switches stay connected. It errors when the topology
// cannot absorb that many failures (e.g. every remaining link is a
// bridge). Generation is deterministic for a given rng state.
func RandomPlan(net *topology.Network, spec PlanSpec, rng *rand.Rand) (Plan, error) {
	if spec.LinkFailures < 0 || spec.SwitchFailures < 0 {
		return Plan{}, fmt.Errorf("fault: negative failure counts %+v", spec)
	}
	plan := Plan{Name: fmt.Sprintf("rand-l%d-s%d", spec.LinkFailures, spec.SwitchFailures)}

	// Switch failures first: each removes a switch plus its links.
	deadCount := 0
	for deadCount < spec.SwitchFailures {
		perm := rng.Perm(net.Switches())
		picked := false
		for _, s := range perm {
			if planHasSwitch(plan, s) {
				continue
			}
			cand := plan
			cand.Events = append(append([]Event{}, plan.Events...),
				Event{Kind: SwitchDown, Switch: s, At: spec.At})
			if _, err := Apply(net, cand); err == nil {
				plan = cand
				deadCount++
				picked = true
				break
			}
		}
		if !picked {
			return Plan{}, fmt.Errorf("fault: cannot fail %d switches of %s without partitioning it (managed %d)",
				spec.SwitchFailures, net.Name(), deadCount)
		}
	}

	// Link failures on the remaining topology.
	linkCount := 0
	for linkCount < spec.LinkFailures {
		links := net.Links()
		order := rng.Perm(len(links))
		picked := false
		for _, li := range order {
			l := links[li]
			if planHasLink(plan, l) || planHasSwitch(plan, l.A) || planHasSwitch(plan, l.B) {
				continue
			}
			cand := plan
			cand.Events = append(append([]Event{}, plan.Events...),
				Event{Kind: LinkDown, Link: l, At: spec.At})
			if _, err := Apply(net, cand); err == nil {
				plan = cand
				linkCount++
				picked = true
				break
			}
		}
		if !picked {
			return Plan{}, fmt.Errorf("fault: cannot fail %d links of %s without partitioning it (managed %d)",
				spec.LinkFailures, net.Name(), linkCount)
		}
	}
	return plan, nil
}

func planHasLink(p Plan, l topology.Link) bool {
	c := topology.NormalizeLink(l.A, l.B)
	for _, e := range p.Events {
		if (e.Kind == LinkDown || e.Kind == FlakyLink) && topology.NormalizeLink(e.Link.A, e.Link.B) == c {
			return true
		}
	}
	return false
}

func planHasSwitch(p Plan, s int) bool {
	for _, e := range p.Events {
		if e.Kind == SwitchDown && e.Switch == s {
			return true
		}
	}
	return false
}
