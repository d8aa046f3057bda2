package search

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"commsched/internal/mapping"
	"commsched/internal/obs"
	"commsched/internal/quality"
	"commsched/internal/topology"
)

// Tabu screens swap candidates of the paper's objective with a per-switch
// cluster-sum table, by block and by pair, and prices only possible
// winners with SwapDelta. The tests below hold it to the exact-only scan
// the other objectives get.

// opaqueObjective delegates to an evaluator but hides its concrete type,
// so Tabu prices every candidate with SwapDelta.
type opaqueObjective struct{ e *quality.Evaluator }

func (o opaqueObjective) IntraSum(p *mapping.Partition) float64 { return o.e.IntraSum(p) }

func (o opaqueObjective) SwapDelta(p *mapping.Partition, u, v int) float64 {
	return o.e.SwapDelta(p, u, v)
}

type namedNetwork struct {
	name string
	net  *topology.Network
}

// screenNetworks returns irregular networks of 16–96 switches and the
// designed and regular families the experiments use, every size divisible
// by 8.
func screenNetworks(t *testing.T) []namedNetwork {
	t.Helper()
	var out []namedNetwork
	add := func(name string, net *topology.Network, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, namedNetwork{name, net})
	}
	for n := 16; n <= 96; n += 8 {
		net, err := topology.RandomIrregular(n, 3, rand.New(rand.NewSource(int64(n))), topology.Config{})
		add(fmt.Sprintf("irregular%d", n), net, err)
	}
	net, err := topology.InterconnectedRings(4, 6, 1, topology.Config{})
	add("rings4x6", net, err)
	net, err = topology.Torus2D(4, 4, topology.Config{})
	add("torus4x4", net, err)
	net, err = topology.Torus2D(8, 8, topology.Config{})
	add("torus8x8", net, err)
	net, err = topology.Hypercube(4, topology.Config{})
	add("cube4", net, err)
	net, err = topology.Hypercube(6, topology.Config{Ports: 10})
	add("cube6", net, err)
	net, err = topology.Ring(16, topology.Config{})
	add("ring16", net, err)
	net, err = topology.Mesh2D(8, 8, topology.Config{})
	add("mesh8x8", net, err)
	return out
}

// screenSpecs returns the specs the screen tests run on n switches: 2, 4
// and 8 equal clusters and the unequal sizes N/2, N/4, N/8 and the rest.
func screenSpecs(t *testing.T, n int) []Spec {
	t.Helper()
	specs := []Spec{spec(t, n, 2), spec(t, n, 4), spec(t, n, 8)}
	return append(specs, Spec{Sizes: []int{n / 2, n / 4, n / 8, n - n/2 - n/4 - n/8}})
}

// sameResult fails unless the screened and exact-only results agree on
// the best partition, its value and the counters.
func sameResult(t *testing.T, label string, screened, exact *Result) {
	t.Helper()
	if !screened.Best.Equal(exact.Best) {
		t.Errorf("%s: best partitions differ: %v vs %v", label, screened.Best, exact.Best)
	}
	if screened.BestIntraSum != exact.BestIntraSum {
		t.Errorf("%s: BestIntraSum %v vs %v", label, screened.BestIntraSum, exact.BestIntraSum)
	}
	if screened.Evaluations != exact.Evaluations || screened.Iterations != exact.Iterations {
		t.Errorf("%s: evaluations/iterations %d/%d vs %d/%d", label,
			screened.Evaluations, screened.Iterations, exact.Evaluations, exact.Iterations)
	}
}

// TestTabuScreenMatchesExactScan: on every instance, spec and seed, the
// screened search must return exactly what the exact-only scan returns —
// the same best partition, value and counters — from random restarts and
// from a warm start (SearchFrom, as repair runs it).
func TestTabuScreenMatchesExactScan(t *testing.T) {
	for _, inst := range screenNetworks(t) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			t.Parallel()
			e := evalFor(t, inst.net)
			for _, sp := range screenSpecs(t, inst.net.Switches()) {
				for seed := int64(1); seed <= 5; seed++ {
					label := fmt.Sprintf("sizes=%v seed=%d", sp.Sizes, seed)
					screened, err := NewTabu().SearchObjective(nil, e, sp, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					exact, err := NewTabu().SearchObjective(nil, opaqueObjective{e}, sp, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, label, screened, exact)

					start, err := sp.randomPartition(rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					screened, err = NewTabu().SearchFrom(nil, e, sp, nil, start)
					if err != nil {
						t.Fatal(err)
					}
					exact, err = NewTabu().SearchFrom(nil, opaqueObjective{e}, sp, nil, start)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, label+" warm", screened, exact)
				}
			}
		})
	}
}

// TestSwapTableBlockFloor: after random swaps applied through the table,
// refresh leaves every minA entry the block scan reads equal to its
// definition over the current partition, no block bound exceeds the
// SwapDelta of any pair in its block, and with random moves tabu the
// block scan picks the move and counts the tabu hits and aspirations the
// exact-only scan does.
func TestSwapTableBlockFloor(t *testing.T) {
	for _, inst := range screenNetworks(t) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			t.Parallel()
			e := evalFor(t, inst.net)
			n := inst.net.Switches()
			rng := rand.New(rand.NewSource(int64(n)))
			for _, sp := range screenSpecs(t, n) {
				p, err := sp.randomPartition(rng)
				if err != nil {
					t.Fatal(err)
				}
				tb := newSwapTable(e, p)
				m := p.M()
				for step := 1; step <= 60; step++ {
					u, v := rng.Intn(n), rng.Intn(n)
					if cu, cv := p.Cluster(u), p.Cluster(v); cu != cv {
						tb.swap(u, v, cu, cv)
						p.Swap(u, v)
					}
					if step%20 != 0 {
						continue
					}
					tb.refresh(p)
					for b := 1; b < m; b++ {
						for a := 0; a < b; a++ {
							want := math.Inf(1)
							for y := 0; y < n; y++ {
								if p.Cluster(y) == b {
									want = math.Min(want, tb.g[y*m+a]-tb.g[y*m+b])
								}
							}
							if got := tb.minA[b*m+a]; got != want {
								t.Fatalf("sizes=%v step %d: minA[%d][%d] = %v, recomputed %v", sp.Sizes, step, b, a, got, want)
							}
						}
					}
					for x := 0; x < n; x++ {
						for y := 0; y < n; y++ {
							a, b := p.Cluster(x), p.Cluster(y)
							if a >= b {
								continue
							}
							bound, d := tb.blockFloor(x, a, b), e.SwapDelta(p, min(x, y), max(x, y))
							if bound > d {
								t.Fatalf("sizes=%v step %d: block {%d}×%d bound %v exceeds SwapDelta(%d, %d) = %v",
									sp.Sizes, step, x, b, bound, min(x, y), max(x, y), d)
							}
						}
					}
					tabu := map[[2]int]int{}
					for len(tabu) < 4 {
						if u, v := rng.Intn(n), rng.Intn(n); p.Cluster(u) != p.Cluster(v) {
							tabu[moveKey(u, v)] = 1
						}
					}
					cur := e.IntraSum(p)
					var screened, exact restartStats
					u, v, d, ok := (&Tabu{}).bestMove(e, &tb, p, tabu, 0, cur, cur, &screened)
					eu, ev, ed, eok := (&Tabu{}).bestMove(e, &swapTable{}, p, tabu, 0, cur, cur, &exact)
					if u != eu || v != ev || d != ed || ok != eok ||
						screened.tabuHits != exact.tabuHits || screened.aspirations != exact.aspirations {
						t.Fatalf("sizes=%v step %d: block scan (%d,%d) %v, %d hits, %d aspirations; exact scan (%d,%d) %v, %d hits, %d aspirations",
							sp.Sizes, step, u, v, d, screened.tabuHits, screened.aspirations, eu, ev, ed, exact.tabuHits, exact.aspirations)
					}
				}
			}
		})
	}
}

// restartCounts sums the evaluations and exact_evaluations fields of the
// recorded search.restart events.
func restartCounts(t *testing.T, mem *obs.Memory) (evals, exact int) {
	t.Helper()
	for _, r := range mem.ByName("search.restart") {
		fields := map[string]any{}
		for _, f := range r.Fields {
			fields[f.Key] = f.Value
		}
		e, ok := fields["evaluations"].(int)
		x, okx := fields["exact_evaluations"].(int)
		if !ok || !okx {
			t.Fatalf("search.restart record lacks integer evaluations or exact_evaluations: %+v", r.Fields)
		}
		evals += e
		exact += x
	}
	return evals, exact
}

// TestTabuRestartReportsExactEvaluations: search.restart events count the
// candidates priced by SwapDelta — a small share under the screen, all of
// them for an objective without a table.
func TestTabuRestartReportsExactEvaluations(t *testing.T) {
	mem := &obs.Memory{}
	obs.SetSink(mem)
	defer obs.SetSink(nil)

	net, err := topology.RandomIrregular(48, 3, rand.New(rand.NewSource(3)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := evalFor(t, net)
	sp := spec(t, 48, 4)

	res, err := NewTabu().SearchObjective(nil, e, sp, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	evals, exact := restartCounts(t, mem)
	if evals != res.Evaluations {
		t.Fatalf("screened: restart events sum to %d evaluations, Result has %d", evals, res.Evaluations)
	}
	if exact <= 0 || exact*10 > evals {
		t.Fatalf("screened: %d of %d candidates priced exactly, want a positive share below a tenth", exact, evals)
	}

	mem.Reset()
	res, err = NewTabu().SearchObjective(nil, opaqueObjective{e}, sp, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	evals, exact = restartCounts(t, mem)
	if evals != res.Evaluations || exact != evals {
		t.Fatalf("exact-only: restart events report %d exact of %d evaluations, Result has %d", exact, evals, res.Evaluations)
	}
}
