package distance

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"commsched/internal/fault"
	"commsched/internal/linalg"
	"commsched/internal/routing"
	"commsched/internal/topology"
)

// Property-based checks of the equivalent-distance table: structural
// invariants on random irregular instances, closed forms on topologies
// where the effective resistance is known analytically, and agreement of
// the incremental rebuild with the from-scratch computation under random
// fault plans.

const propEps = 1e-9

// buildTable characterizes one random irregular instance.
func buildTable(t *testing.T, switches int, seed int64) (*topology.Network, *routing.UpDown, *Table) {
	t.Helper()
	net, err := topology.RandomIrregular(switches, 3, rand.New(rand.NewSource(seed)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Compute(net, rt)
	if err != nil {
		t.Fatal(err)
	}
	return net, rt, tab
}

// TestTableStructuralProperties checks, across random instances: zero
// diagonal, symmetry, strict positivity off the diagonal, and the
// resistance upper bound — parallel routes can only lower the equivalent
// distance, so T[i][j] never exceeds the legal hop distance.
func TestTableStructuralProperties(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			_, rt, tab := buildTable(t, 16, seed)
			n := tab.N()
			for i := 0; i < n; i++ {
				if tab.At(i, i) != 0 {
					t.Fatalf("T[%d][%d] = %v, want 0", i, i, tab.At(i, i))
				}
				for j := i + 1; j < n; j++ {
					d := tab.At(i, j)
					if math.Abs(d-tab.At(j, i)) > propEps {
						t.Fatalf("asymmetric: T[%d][%d]=%v T[%d][%d]=%v", i, j, d, j, i, tab.At(j, i))
					}
					if d <= 0 {
						t.Fatalf("T[%d][%d] = %v, want > 0", i, j, d)
					}
					hops := float64(rt.Distance(i, j))
					if d > hops+propEps {
						t.Fatalf("T[%d][%d] = %v exceeds hop distance %v", i, j, d, hops)
					}
					// A single minimal route means no parallelism: the
					// equivalent distance must equal the hop count.
					if rt.CountShortestLegalPaths(i, j) == 1 && math.Abs(d-hops) > propEps {
						t.Fatalf("unique route %d-%d: T=%v, want hop distance %v", i, j, d, hops)
					}
				}
			}
		})
	}
}

// TestPathClosedForm: on a path graph every pair has exactly one route, a
// series chain of unit resistors — T[i][j] = |i-j| exactly.
func TestPathClosedForm(t *testing.T) {
	const n = 7
	links := make([]topology.Link, 0, n-1)
	for i := 0; i < n-1; i++ {
		links = append(links, topology.Link{A: i, B: i + 1})
	}
	net, err := topology.New("path7", n, links, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Compute(net, rt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := math.Abs(float64(i - j))
			if math.Abs(tab.At(i, j)-want) > propEps {
				t.Fatalf("path: T[%d][%d] = %v, want %v", i, j, tab.At(i, j), want)
			}
		}
	}
}

// TestStarClosedForm: on a star every route runs through the center —
// center↔leaf is one unit resistor (T = 1), leaf↔leaf two in series
// (T = 2). The center's degree exceeds the default port budget, so the
// instance needs a wider switch configuration.
func TestStarClosedForm(t *testing.T) {
	const leaves = 8
	links := make([]topology.Link, 0, leaves)
	for l := 1; l <= leaves; l++ {
		links = append(links, topology.Link{A: 0, B: l})
	}
	net, err := topology.New("star8", leaves+1, links, topology.Config{Ports: 16})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Compute(net, rt)
	if err != nil {
		t.Fatal(err)
	}
	for l := 1; l <= leaves; l++ {
		if math.Abs(tab.At(0, l)-1) > propEps {
			t.Fatalf("star: T[0][%d] = %v, want 1", l, tab.At(0, l))
		}
		for m := l + 1; m <= leaves; m++ {
			if math.Abs(tab.At(l, m)-2) > propEps {
				t.Fatalf("star: T[%d][%d] = %v, want 2", l, m, tab.At(l, m))
			}
		}
	}
}

// TestComputeDeltaMatchesFullCompute: after random link-only fault plans
// (switch IDs stable, so the incremental path applies) the table produced
// by ComputeDelta must agree entry for entry with a from-scratch Compute
// on the degraded network, and the recomputed-pair count must stay within
// its trivial bounds.
func TestComputeDeltaMatchesFullCompute(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			net, rt, tab := buildTable(t, 16, seed)
			rng := rand.New(rand.NewSource(seed * 31))
			plan, err := fault.RandomPlan(net, fault.PlanSpec{LinkFailures: 1 + rng.Intn(2)}, rng)
			if err != nil {
				t.Skipf("no connectivity-preserving plan for seed %d: %v", seed, err)
			}
			d, err := fault.Apply(net, plan)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Identity() {
				t.Fatalf("link-only plan compacted switch IDs: %+v", d.DeadSwitches)
			}
			rt2, err := routing.NewUpDown(d.Net, rt.Root())
			if err != nil {
				t.Fatal(err)
			}
			delta, recomputed, err := ComputeDelta(d.Net, rt2, rt, tab)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Compute(d.Net, rt2)
			if err != nil {
				t.Fatal(err)
			}
			n := full.N()
			if recomputed < 0 || recomputed > n*(n-1)/2 {
				t.Fatalf("recomputed %d pairs outside [0, %d]", recomputed, n*(n-1)/2)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if math.Abs(delta.At(i, j)-full.At(i, j)) > 1e-12 {
						t.Fatalf("T[%d][%d]: delta %v vs full %v", i, j, delta.At(i, j), full.At(i, j))
					}
				}
			}
		})
	}
}

// TestSumSquaresMatchesQuadraticMean ties the two table aggregates
// together: SumSquares must equal QuadraticMean × (number of pairs) on
// arbitrary instances.
func TestSumSquaresMatchesQuadraticMean(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		_, _, tab := buildTable(t, 12, seed)
		n := tab.N()
		pairs := float64(n * (n - 1) / 2)
		if got, want := tab.SumSquares(), tab.QuadraticMean()*pairs; math.Abs(got-want) > propEps {
			t.Fatalf("seed %d: SumSquares %v vs QuadraticMean*pairs %v", seed, got, want)
		}
	}
}

// globalSolveMismatches counts the cells of tab that differ, in any bit,
// from linalg.EffectiveResistance solved over the whole network's index
// space on the provider's route links, and describes the first one.
func globalSolveMismatches(t *testing.T, net *topology.Network, p routing.PathProvider, tab *Table) (int, string) {
	t.Helper()
	n := net.Switches()
	differ, first := 0, ""
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			links := p.AppendPathLinks(nil, i, j)
			edges := make([]linalg.WeightedEdge, len(links))
			for k, l := range links {
				edges[k] = linalg.WeightedEdge{U: l.A, V: l.B, Weight: 1}
			}
			want, err := linalg.EffectiveResistance(n, edges, i, j)
			if err != nil {
				t.Fatalf("global solve (%d,%d): %v", i, j, err)
			}
			if tab.At(i, j) != want || tab.At(j, i) != want {
				if differ == 0 {
					first = fmt.Sprintf("T[%d][%d] = %v, global solve %v", i, j, tab.At(i, j), want)
				}
				differ++
			}
		}
	}
	return 2 * differ, first
}

// TestComputeMatchesGlobalSolve: solving each pair over its own route
// subgraph, renumbered in ascending switch order, builds the same grounded
// system as the solve over global indices, so every cell of Compute — and
// of ComputeDelta after a link failure — equals the global solve bit for
// bit, on irregular and regular topologies under both path suppliers.
func TestComputeMatchesGlobalSolve(t *testing.T) {
	type instance struct {
		name string
		net  *topology.Network
	}
	must := func(net *topology.Network, err error) *topology.Network {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	var nets []instance
	for _, n := range []int{16, 32, 64, 96, 128} {
		for seed := int64(1); seed <= 3; seed++ {
			net := must(topology.RandomIrregular(n, 3, rand.New(rand.NewSource(seed)), topology.Config{}))
			nets = append(nets, instance{fmt.Sprintf("irregular%d/seed%d", n, seed), net})
		}
	}
	nets = append(nets,
		instance{"ring16", must(topology.Ring(16, topology.Config{}))},
		instance{"torus8x8", must(topology.Torus2D(8, 8, topology.Config{}))},
		instance{"hypercube6", must(topology.Hypercube(6, topology.Config{Ports: 10}))},
		instance{"rings4x6", must(topology.InterconnectedRings(4, 6, 1, topology.Config{}))},
	)
	providers := []struct {
		name string
		of   func(*topology.Network) (routing.PathProvider, error)
	}{
		{"updown", func(net *topology.Network) (routing.PathProvider, error) { return routing.NewUpDown(net, -1) }},
		{"shortest", func(net *topology.Network) (routing.PathProvider, error) { return routing.NewShortestPath(net), nil }},
	}
	for _, in := range nets {
		for _, pv := range providers {
			t.Run(in.name+"/"+pv.name, func(t *testing.T) {
				t.Parallel()
				p, err := pv.of(in.net)
				if err != nil {
					t.Fatal(err)
				}
				tab, err := Compute(in.net, p)
				if err != nil {
					t.Fatal(err)
				}
				n := in.net.Switches()
				if differ, first := globalSolveMismatches(t, in.net, p, tab); differ > 0 {
					t.Fatalf("Compute: %d of %d cells differ from the global solve; first %s", differ, n*n, first)
				}
				degraded := withoutOneLink(t, in.net)
				p2, err := pv.of(degraded)
				if err != nil {
					t.Fatal(err)
				}
				delta, recomputed, err := ComputeDelta(degraded, p2, p, tab)
				if err != nil {
					t.Fatal(err)
				}
				if recomputed == 0 {
					t.Fatal("ComputeDelta re-solved no pair after a link failure")
				}
				if differ, first := globalSolveMismatches(t, degraded, p2, delta); differ > 0 {
					t.Fatalf("ComputeDelta: %d of %d cells differ from the global solve; first %s", differ, n*n, first)
				}
			})
		}
	}
}

// TestComputeBitsPinned pins every cell of the tables Compute builds:
// a SHA-256 over the little-endian float64 bits of T[i][j], i<j in
// row-major order, for seeded irregular networks of 16–128 switches
// under up*/down* and then shortest-path routes. TestComputeMatchesGlobalSolve
// compares against linalg's solve, so it cannot see the two drift
// together; this digest can. It is checked with one worker, which
// reuses per-worker scratch across the most pairs, and at the default.
func TestComputeBitsPinned(t *testing.T) {
	const want = "5602a3e7658c196ed20aecd04de96e1c9db0ac6694b8669c871953470a0170ae"
	digest := func() string {
		h := sha256.New()
		var buf [8]byte
		for _, n := range []int{16, 48, 96, 128} {
			for seed := int64(1); seed <= 3; seed++ {
				net, err := topology.RandomIrregular(n, 3, rand.New(rand.NewSource(seed)), topology.Config{})
				if err != nil {
					t.Fatal(err)
				}
				ud, err := routing.NewUpDown(net, -1)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []routing.PathProvider{ud, routing.NewShortestPath(net)} {
					tab, err := Compute(net, p)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < n; i++ {
						for j := i + 1; j < n; j++ {
							binary.LittleEndian.PutUint64(buf[:], math.Float64bits(tab.At(i, j)))
							h.Write(buf[:])
						}
					}
				}
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	prev := runtime.GOMAXPROCS(1)
	one := digest()
	runtime.GOMAXPROCS(prev)
	if one != want {
		t.Errorf("GOMAXPROCS=1: table digest %s, want %s", one, want)
	}
	if got := digest(); got != want {
		t.Errorf("GOMAXPROCS=%d: table digest %s, want %s", prev, got, want)
	}
}
