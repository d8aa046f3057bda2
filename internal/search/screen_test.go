package search

import (
	"fmt"
	"math/rand"
	"testing"

	"commsched/internal/mapping"
	"commsched/internal/obs"
	"commsched/internal/quality"
	"commsched/internal/topology"
)

// Tabu screens swap candidates of the paper's objective with a per-switch
// cluster-sum table and prices only possible winners with SwapDelta. The
// tests below hold it to the exact-only scan the other objectives get.

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

// TestTabuScreenMatchesExactScan: on every instance, cluster count and
// seed, the screened search must return exactly what the exact-only scan
// returns — the same best partition, value and counters.
func TestTabuScreenMatchesExactScan(t *testing.T) {
	for _, inst := range screenNetworks(t) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			t.Parallel()
			e := evalFor(t, inst.net)
			for _, m := range []int{2, 4, 8} {
				sp := spec(t, inst.net.Switches(), m)
				for seed := int64(1); seed <= 5; seed++ {
					screened, err := NewTabu().SearchObjective(nil, e, sp, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					exact, err := NewTabu().SearchObjective(nil, opaqueObjective{e}, sp, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("m=%d seed=%d", m, seed)
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
