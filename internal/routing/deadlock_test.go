package routing

import (
	"math/rand"
	"testing"

	"commsched/internal/topology"
)

func TestUpDownDependencyGraphAcyclic(t *testing.T) {
	// The core safety property: up*/down* routing is deadlock-free on
	// every topology — its channel dependency graph is acyclic.
	nets := []*topology.Network{}
	for _, seed := range []int64{1, 2, 3, 4} {
		net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(seed)), topology.Config{})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	ring, err := topology.Ring(8, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rings, err := topology.InterconnectedRings(4, 6, 1, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topology.Torus2D(3, 3, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, ring, rings, torus)

	for _, net := range nets {
		ud, err := NewUpDown(net, -1)
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		g := ud.ChannelDependencyGraph()
		if cycle := g.Cycle(); cycle != nil {
			t.Fatalf("%s: up*/down* dependency graph has a cycle: %v", net.Name(), cycle)
		}
		deps := 0
		for _, out := range g.adj {
			deps += len(out)
		}
		if deps == 0 {
			t.Fatalf("%s: empty dependency graph (construction bug)", net.Name())
		}
	}
}

func TestShortestPathDependencyGraphCyclicOnRing(t *testing.T) {
	// Unrestricted minimal routing deadlocks on rings: messages chasing
	// each other around the cycle. The dependency graph must expose this.
	net, err := topology.Ring(6, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp := NewShortestPath(net)
	cycle := sp.ChannelDependencyGraph().Cycle()
	if cycle == nil {
		t.Fatal("minimal routing on a ring reported deadlock-free — dependency construction wrong")
	}
	if len(cycle) < 3 {
		t.Fatalf("degenerate cycle: %v", cycle)
	}
	if cycle[0] != cycle[len(cycle)-1] {
		t.Fatalf("cycle not closed: %v", cycle)
	}
	// Consecutive channels must chain (c1.To == c2.From).
	for i := 1; i < len(cycle); i++ {
		if cycle[i-1].To != cycle[i].From {
			t.Fatalf("cycle does not chain at %d: %v", i, cycle)
		}
	}
}

func TestShortestPathDependencyGraphAcyclicOnTree(t *testing.T) {
	// On a tree there is a single path per pair and no cyclic waiting.
	net := mustNet(t, "tree", 6, []topology.Link{
		{A: 0, B: 1}, {A: 0, B: 2}, {A: 1, B: 3}, {A: 1, B: 4}, {A: 2, B: 5},
	})
	sp := NewShortestPath(net)
	if sp.ChannelDependencyGraph().Cycle() != nil {
		t.Fatal("tree routing reported a dependency cycle")
	}
}

func TestDepGraphChannelsCopy(t *testing.T) {
	net, err := topology.Ring(4, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := NewUpDown(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := ud.ChannelDependencyGraph()
	cs := g.Channels()
	if len(cs) != 8 { // 4 links × 2 directions
		t.Fatalf("channels = %d, want 8", len(cs))
	}
	cs[0] = Channel{99, 99}
	if g.Channels()[0] == (Channel{99, 99}) {
		t.Fatal("Channels exposed internal storage")
	}
}
