package routing

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"commsched/internal/topology"
)

func mustNet(t *testing.T, name string, n int, links []topology.Link) *topology.Network {
	t.Helper()
	net, err := topology.New(name, n, links, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// pathNet is 0-1-2-3.
func pathNet(t *testing.T) *topology.Network {
	return mustNet(t, "path4", 4, []topology.Link{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}})
}

func TestNewUpDownRequiresConnected(t *testing.T) {
	net := mustNet(t, "disc", 4, []topology.Link{{A: 0, B: 1}, {A: 2, B: 3}})
	if _, err := NewUpDown(net, -1); err == nil {
		t.Fatal("expected error for disconnected network")
	}
}

func TestNewUpDownRootRange(t *testing.T) {
	net := pathNet(t)
	if _, err := NewUpDown(net, 10); err == nil {
		t.Fatal("expected error for out-of-range root")
	}
}

func TestRootElection(t *testing.T) {
	// Star: center 1 has degree 3, others 1; auto-election must pick 1.
	net := mustNet(t, "star", 4, []topology.Link{{A: 0, B: 1}, {A: 1, B: 2}, {A: 1, B: 3}})
	ud, err := NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	if ud.Root() != 1 {
		t.Fatalf("Root = %d, want 1 (highest degree)", ud.Root())
	}
	// Explicit root is honored.
	ud2, err := NewUpDown(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ud2.Root() != 3 {
		t.Fatalf("Root = %d, want 3", ud2.Root())
	}
}

func TestLevels(t *testing.T) {
	net := pathNet(t)
	ud, err := NewUpDown(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s, want := range []int{0, 1, 2, 3} {
		if ud.Level(s) != want {
			t.Fatalf("Level(%d) = %d, want %d", s, ud.Level(s), want)
		}
	}
}

func TestIsUpOrientation(t *testing.T) {
	net := pathNet(t)
	ud, _ := NewUpDown(net, 0)
	if !ud.IsUp(1, 0) {
		t.Fatal("moving toward the root must be up")
	}
	if ud.IsUp(0, 1) {
		t.Fatal("moving away from the root must be down")
	}
}

func TestIsUpTieBreakByID(t *testing.T) {
	// Triangle rooted at 0: switches 1 and 2 are both level 1; the link
	// between them orients up toward the lower ID.
	net := mustNet(t, "tri", 3, []topology.Link{{A: 0, B: 1}, {A: 0, B: 2}, {A: 1, B: 2}})
	ud, _ := NewUpDown(net, 0)
	if !ud.IsUp(2, 1) || ud.IsUp(1, 2) {
		t.Fatal("same-level link must orient up toward the lower switch ID")
	}
}

func TestDistanceOnPath(t *testing.T) {
	net := pathNet(t)
	ud, _ := NewUpDown(net, 0)
	cases := []struct{ s, tt, want int }{
		{0, 0, 0}, {0, 3, 3}, {3, 0, 3}, {1, 2, 1}, {2, 1, 1},
	}
	for _, c := range cases {
		if got := ud.Distance(c.s, c.tt); got != c.want {
			t.Fatalf("Distance(%d,%d) = %d, want %d", c.s, c.tt, got, c.want)
		}
	}
}

// The classic up*/down* detour: on a ring rooted at 0, some minimal paths
// are forbidden because they would require a down→up transition.
func TestUpDownForbidsDownUpTransitions(t *testing.T) {
	// Ring of 6 rooted at 0. Levels: 0:0, 1:1, 5:1, 2:2, 4:2, 3:3.
	net, err := topology.Ring(6, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := NewUpDown(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	// From 2 to 4 the minimal topological path 2-3-4 goes down (2→3) then
	// up (3→4) — forbidden. Legal route must climb first: 2-1-0-5-4 or via
	// the 1↔5 structure; the legal distance must exceed the hop distance.
	if hop := net.BFSDistances(2)[4]; hop != 2 {
		t.Fatalf("sanity: hop distance 2→4 = %d, want 2", hop)
	}
	if got := ud.Distance(2, 4); got <= 2 {
		t.Fatalf("Distance(2,4) = %d; up*/down* must forbid the 2-3-4 path", got)
	}
	// Every enumerated route must be a legal up*-then-down* sequence.
	for _, path := range ud.ShortestLegalPaths(2, 4) {
		assertLegal(t, ud, path)
	}
}

func assertLegal(t *testing.T, ud *UpDown, path []int) {
	t.Helper()
	descending := false
	for i := 1; i < len(path); i++ {
		up := ud.IsUp(path[i-1], path[i])
		if up && descending {
			t.Fatalf("path %v makes a down→up transition at hop %d", path, i)
		}
		if !up {
			descending = true
		}
	}
}

func TestNextHopsAdvance(t *testing.T) {
	net := pathNet(t)
	ud, _ := NewUpDown(net, 0)
	hops := ud.NextHops(3, 0, false)
	if len(hops) != 1 || hops[0].To != 2 {
		t.Fatalf("NextHops(3→0) = %v, want single hop to 2", hops)
	}
	if ud.NextHops(2, 2, false) != nil {
		t.Fatal("NextHops at destination must be empty")
	}
}

func TestNextHopsDescendingRestricted(t *testing.T) {
	net := mustNet(t, "tri", 3, []topology.Link{{A: 0, B: 1}, {A: 0, B: 2}, {A: 1, B: 2}})
	ud, _ := NewUpDown(net, 0)
	// A message at 2 destined to 1: in the up phase it may take the direct
	// same-level link 2→1 (up, since 1 < 2).
	hops := ud.NextHops(2, 1, false)
	found := false
	for _, h := range hops {
		if h.To == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("NextHops(2→1, up) = %v, want direct hop to 1", hops)
	}
	// Once descending, the up link 2→1 is forbidden; only down continuation
	// could be legal, and from 2 there is none that reaches 1 in one hop.
	for _, h := range ud.NextHops(2, 1, true) {
		if !h.Descending {
			t.Fatalf("descending message offered non-descending hop %v", h)
		}
		if ud.IsUp(2, h.To) {
			t.Fatalf("descending message offered up hop %v", h)
		}
	}
}

func TestPathLinksOnPathGraph(t *testing.T) {
	net := pathNet(t)
	ud, _ := NewUpDown(net, 0)
	links := ud.AppendPathLinks(nil, 0, 3)
	if len(links) != 3 {
		t.Fatalf("AppendPathLinks(0,3) = %v, want all 3 path links", links)
	}
	if ud.AppendPathLinks(nil, 2, 2) != nil {
		t.Fatal("AppendPathLinks(i,i) must be empty")
	}
}

func TestPathLinksSubsetOfNetworkLinks(t *testing.T) {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(5)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[topology.Link]bool{}
	for _, l := range net.Links() {
		valid[l] = true
	}
	for s := 0; s < 16; s++ {
		for tt := 0; tt < 16; tt++ {
			for _, l := range ud.AppendPathLinks(nil, s, tt) {
				if !valid[l] {
					t.Fatalf("AppendPathLinks(%d,%d) returned non-network link %v", s, tt, l)
				}
			}
		}
	}
}

func TestShortestLegalPathsProperties(t *testing.T) {
	net, err := topology.RandomIrregular(12, 3, rand.New(rand.NewSource(8)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 12; s++ {
		for tt := 0; tt < 12; tt++ {
			paths := ud.ShortestLegalPaths(s, tt)
			if len(paths) == 0 {
				t.Fatalf("no legal path %d→%d in a connected network", s, tt)
			}
			want := ud.Distance(s, tt)
			for _, p := range paths {
				if len(p)-1 != want {
					t.Fatalf("path %v has length %d, want %d", p, len(p)-1, want)
				}
				if p[0] != s || p[len(p)-1] != tt {
					t.Fatalf("path %v does not run %d→%d", p, s, tt)
				}
				assertLegal(t, ud, p)
			}
		}
	}
}

func TestPathLinksMatchEnumeratedPaths(t *testing.T) {
	// AppendPathLinks must equal exactly the union of links appearing in the
	// enumerated minimal legal routes, each link once. The torus and the
	// hypercube have route subgraphs larger than AppendPathLinks' stack buffers.
	irregular, err := topology.RandomIrregular(12, 3, rand.New(rand.NewSource(48)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topology.Torus2D(8, 8, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := topology.Hypercube(6, topology.Config{Ports: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*topology.Network{irregular, torus, cube} {
		ud, err := NewUpDown(net, -1)
		if err != nil {
			t.Fatal(err)
		}
		n := net.Switches()
		for s := 0; s < n; s++ {
			for tt := 0; tt < n; tt++ {
				want := map[topology.Link]bool{}
				for _, path := range ud.ShortestLegalPaths(s, tt) {
					for i := 1; i < len(path); i++ {
						want[topology.NormalizeLink(path[i-1], path[i])] = true
					}
				}
				links := ud.AppendPathLinks(nil, s, tt)
				got := map[topology.Link]bool{}
				for _, l := range links {
					got[l] = true
				}
				if len(links) != len(got) {
					t.Fatalf("%s (%d,%d): AppendPathLinks repeats a link: %v", net.Name(), s, tt, links)
				}
				if len(got) != len(want) {
					t.Fatalf("%s (%d,%d): AppendPathLinks has %d links, enumeration %d", net.Name(), s, tt, len(got), len(want))
				}
				for l := range want {
					if !got[l] {
						t.Fatalf("%s (%d,%d): link %v in enumerated paths missing from AppendPathLinks", net.Name(), s, tt, l)
					}
				}
			}
		}
	}
}

func TestCountShortestLegalPaths(t *testing.T) {
	net, err := topology.RandomIrregular(14, 3, rand.New(rand.NewSource(44)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 14; s++ {
		for tt := 0; tt < 14; tt++ {
			want := len(ud.ShortestLegalPaths(s, tt))
			if got := ud.CountShortestLegalPaths(s, tt); got != want {
				t.Fatalf("Count(%d,%d) = %d, enumeration found %d", s, tt, got, want)
			}
		}
	}
}

func TestCountShortestLegalPathsDiamond(t *testing.T) {
	// Diamond rooted at 0: two minimal legal routes 0→3.
	net := mustNet(t, "diamond", 4, []topology.Link{{A: 0, B: 1}, {A: 0, B: 2}, {A: 1, B: 3}, {A: 2, B: 3}})
	ud, err := NewUpDown(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ud.CountShortestLegalPaths(0, 3); got != 2 {
		t.Fatalf("diamond count = %d, want 2", got)
	}
	if got := ud.CountShortestLegalPaths(1, 1); got != 1 {
		t.Fatalf("self count = %d, want 1", got)
	}
}

// Property: over random topologies, legal distance is symmetric-free (may
// be asymmetric!) but always >= hop distance, and hops from NextHops always
// reduce remaining legal distance by one.
func TestQuickUpDownInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, err := topology.RandomIrregular(12, 3, rng, topology.Config{})
		if err != nil {
			return false
		}
		ud, err := NewUpDown(net, -1)
		if err != nil {
			return false
		}
		sp := NewShortestPath(net)
		for s := 0; s < 12; s++ {
			for t := 0; t < 12; t++ {
				if ud.Distance(s, t) < sp.Distance(s, t) {
					return false // legal routes cannot beat BFS
				}
				if s == t {
					continue
				}
				for _, h := range ud.NextHops(s, t, false) {
					// Following an admissible hop must strictly reduce the
					// legal remaining distance for the *phase-aware* walk:
					// re-walk greedily to the destination and count hops.
					if !walkTerminates(ud, s, t) {
						return false
					}
					_ = h
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// walkTerminates greedily follows first admissible hops and checks the walk
// reaches t in exactly Distance(s,t) hops.
func walkTerminates(ud *UpDown, s, t int) bool {
	cur, down := s, false
	for steps := 0; steps <= ud.Distance(s, t); steps++ {
		if cur == t {
			return steps == ud.Distance(s, t)
		}
		hops := ud.NextHops(cur, t, down)
		if len(hops) == 0 {
			return false
		}
		cur, down = hops[0].To, hops[0].Descending
	}
	return cur == t
}

// TestAppendPathLinksKeepsDst: the links are appended after what dst
// holds, which is neither read nor deduplicated against — a link already
// in dst is appended again when the route uses it.
func TestAppendPathLinksKeepsDst(t *testing.T) {
	net := pathNet(t)
	ud, err := NewUpDown(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp := NewShortestPath(net)
	for name, p := range map[string]PathProvider{"updown": ud, "shortest": sp} {
		prefix := []topology.Link{{A: 1, B: 2}, {A: 5, B: 6}}
		got := p.AppendPathLinks(slices.Clone(prefix), 0, 3)
		if len(got) != 5 || !slices.Equal(got[:2], prefix) {
			t.Fatalf("%s: AppendPathLinks onto %v = %v, want the prefix then all 3 path links", name, prefix, got)
		}
		if !slices.Contains(got[2:], topology.Link{A: 1, B: 2}) {
			t.Fatalf("%s: the route's link 1-2 was deduplicated against dst: %v", name, got)
		}
		if got := p.AppendPathLinks(prefix, 2, 2); !slices.Equal(got, prefix) {
			t.Fatalf("%s: AppendPathLinks(i,i) changed dst to %v", name, got)
		}
	}
}

// TestNewUpDownAllocsDoNotGrowWithSwitches: the routing structure is
// allocated a fixed number of times per network, however many switches
// (and pairs, and BFS passes) it has.
func TestNewUpDownAllocsDoNotGrowWithSwitches(t *testing.T) {
	allocs := func(n int) float64 {
		net, err := topology.RandomIrregular(n, 3, rand.New(rand.NewSource(int64(n))), topology.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := NewUpDown(net, -1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(32), allocs(96); large > small+2 {
		t.Fatalf("NewUpDown allocates %v times at 96 switches, %v at 32", large, small)
	}
}
