package routing

import (
	"math/rand"
	"testing"

	"commsched/internal/topology"
)

func TestShortestPathDistance(t *testing.T) {
	net := pathNet(t)
	sp := NewShortestPath(net)
	if sp.Distance(0, 3) != 3 || sp.Distance(2, 2) != 0 {
		t.Fatalf("distances wrong: %d, %d", sp.Distance(0, 3), sp.Distance(2, 2))
	}
}

func TestShortestPathLinksPath(t *testing.T) {
	net := pathNet(t)
	sp := NewShortestPath(net)
	links := sp.AppendPathLinks(nil, 0, 3)
	if len(links) != 3 {
		t.Fatalf("AppendPathLinks(0,3) = %v, want 3 links", links)
	}
	if sp.AppendPathLinks(nil, 1, 1) != nil {
		t.Fatal("AppendPathLinks(i,i) must be nil")
	}
}

func TestShortestPathLinksRing(t *testing.T) {
	// Ring of 4: opposite corners have two minimal paths; all 4 links used.
	net, err := topology.Ring(4, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp := NewShortestPath(net)
	if got := len(sp.AppendPathLinks(nil, 0, 2)); got != 4 {
		t.Fatalf("ring-4 AppendPathLinks(0,2) = %d links, want 4", got)
	}
	// Adjacent: only the direct link.
	if got := len(sp.AppendPathLinks(nil, 0, 1)); got != 1 {
		t.Fatalf("ring-4 AppendPathLinks(0,1) = %d links, want 1", got)
	}
}

func TestShortestPathNextHops(t *testing.T) {
	net, err := topology.Ring(4, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp := NewShortestPath(net)
	hops := sp.NextHops(0, 2)
	if len(hops) != 2 {
		t.Fatalf("NextHops(0→2) on ring-4 = %v, want two choices", hops)
	}
	if sp.NextHops(1, 1) != nil {
		t.Fatal("NextHops at destination must be nil")
	}
}

func TestShortestVersusUpDown(t *testing.T) {
	// On a tree, up*/down* forbids nothing: distances must coincide.
	net := mustNet(t, "tree", 5, []topology.Link{{A: 0, B: 1}, {A: 0, B: 2}, {A: 1, B: 3}, {A: 1, B: 4}})
	sp := NewShortestPath(net)
	ud, err := NewUpDown(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		for tt := 0; tt < 5; tt++ {
			if sp.Distance(s, tt) != ud.Distance(s, tt) {
				t.Fatalf("tree distances differ at (%d,%d): bfs=%d updown=%d",
					s, tt, sp.Distance(s, tt), ud.Distance(s, tt))
			}
		}
	}
}

func TestShortestPathLinksConsistentWithDistance(t *testing.T) {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(11)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp := NewShortestPath(net)
	for s := 0; s < 16; s++ {
		for tt := 0; tt < 16; tt++ {
			links := sp.AppendPathLinks(nil, s, tt)
			if s == tt {
				if links != nil {
					t.Fatal("self pair must have no path links")
				}
				continue
			}
			if len(links) < sp.Distance(s, tt) {
				t.Fatalf("AppendPathLinks(%d,%d) has %d links; a single minimal path needs %d",
					s, tt, len(links), sp.Distance(s, tt))
			}
		}
	}
}
