package distance

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"commsched/internal/obs"
	"commsched/internal/routing"
	"commsched/internal/topology"
)

// panicProvider panics on every call, modeling a routing structure
// corrupted by a topology change.
type panicProvider struct{}

func (panicProvider) Distance(s, t int) int { panic("corrupted provider") }
func (panicProvider) AppendPathLinks(dst []topology.Link, s, t int) []topology.Link {
	panic("corrupted provider")
}

func TestComputeRecoversWorkerPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := topology.RandomIrregular(12, 3, rng, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compute(net, panicProvider{})
	if err == nil {
		t.Fatal("worker panic not converted into an error")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error does not mention the panic: %v", err)
	}
}

// withoutOneLink returns the network minus its first link whose removal
// keeps it connected; switch IDs are unchanged.
func withoutOneLink(t *testing.T, net *topology.Network) *topology.Network {
	t.Helper()
	for _, l := range net.Links() {
		var keep []topology.Link
		for _, k := range net.Links() {
			if k != l {
				keep = append(keep, k)
			}
		}
		cand, err := topology.New("degraded", net.Switches(), keep, topology.Config{
			Ports: net.Ports(), HostsPerSwitch: net.HostsPerSwitch(),
		})
		if err == nil && cand.Connected() {
			return cand
		}
	}
	t.Fatal("no removable link found")
	return nil
}

// outOfRangeProvider appends to every route a link whose far endpoint,
// n+3, is not a switch of the n-switch network.
type outOfRangeProvider struct {
	routing.PathProvider
	n int
}

func (p outOfRangeProvider) AppendPathLinks(dst []topology.Link, s, t int) []topology.Link {
	return append(p.PathProvider.AppendPathLinks(dst, s, t), topology.Link{A: s, B: p.n + 3})
}

func TestComputeRejectsOutOfRangeRouteLink(t *testing.T) {
	for _, n := range []int{16, 80} {
		net, err := topology.RandomIrregular(n, 3, rand.New(rand.NewSource(1)), topology.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ud, err := routing.NewUpDown(net, -1)
		if err != nil {
			t.Fatal(err)
		}
		old, err := Compute(net, ud)
		if err != nil {
			t.Fatal(err)
		}
		bad := outOfRangeProvider{ud, n}
		check := func(call string, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("n=%d: %s accepted a route link to switch %d", n, call, n+3)
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, "distance: route link ") || strings.Contains(msg, "panic") ||
				!strings.Contains(msg, fmt.Sprintf("-%d for pair (", n+3)) ||
				!strings.Contains(msg, fmt.Sprintf("outside [0,%d)", n)) {
				t.Fatalf("n=%d: %s error does not name the link and the pair: %v", n, call, err)
			}
		}
		_, err = Compute(net, bad)
		check("Compute", err)
		_, _, err = ComputeDelta(net, bad, ud, old)
		check("ComputeDelta", err)
	}
}

// spanErr returns the err field of the only span with the given name.
func spanErr(t *testing.T, mem *obs.Memory, name string) any {
	t.Helper()
	spans := mem.ByName(name)
	if len(spans) != 1 || spans[0].Kind != "span" {
		t.Fatalf("%s: got %d records, want exactly one span", name, len(spans))
	}
	for _, f := range spans[0].Fields {
		if f.Key == "err" {
			return f.Value
		}
	}
	return nil
}

func TestFailedComputeEndsSpan(t *testing.T) {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(1)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	old, err := Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	mem := &obs.Memory{}
	obs.SetSink(mem)
	defer obs.SetSink(nil)
	bad := outOfRangeProvider{ud, 16}
	if _, err := Compute(net, bad); err == nil {
		t.Fatal("Compute accepted a bad route link")
	}
	if got := spanErr(t, mem, "distance.compute"); got != true {
		t.Fatalf("distance.compute span err = %v, want true", got)
	}
	if _, _, err := ComputeDelta(net, bad, ud, old); err == nil {
		t.Fatal("ComputeDelta accepted a bad route link")
	}
	if got := spanErr(t, mem, "distance.compute_delta"); got != true {
		t.Fatalf("distance.compute_delta span err = %v, want true", got)
	}
}

// TestComputeRecordsOneSpanPerTable: a table is one distance.compute or
// distance.compute_delta span. Its pairs leave no par.item span and no
// progress event, which every traced caller would pay for per pair.
func TestComputeRecordsOneSpanPerTable(t *testing.T) {
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(1)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	degraded := withoutOneLink(t, net)
	ud2, err := routing.NewUpDown(degraded, -1)
	if err != nil {
		t.Fatal(err)
	}
	mem := &obs.Memory{}
	obs.SetSink(mem)
	defer obs.SetSink(nil)
	old, err := Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ComputeDelta(degraded, ud2, ud, old); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range mem.Records() {
		got = append(got, r.Kind+" "+r.Name)
	}
	if want := []string{"span distance.compute", "span distance.compute_delta"}; !slices.Equal(got, want) {
		t.Fatalf("records %v, want %v", got, want)
	}
}

func TestComputeDeltaMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(2000))
	net, err := topology.RandomIrregular(16, 3, rng, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	old, err := Compute(net, ud)
	if err != nil {
		t.Fatal(err)
	}

	// Remove one non-bridge link (keep IDs stable) and re-derive routing.
	degraded := withoutOneLink(t, net)
	ud2, err := routing.NewUpDown(degraded, -1)
	if err != nil {
		t.Fatal(err)
	}

	full, err := Compute(degraded, ud2)
	if err != nil {
		t.Fatal(err)
	}
	delta, recomputed, err := ComputeDelta(degraded, ud2, ud, old)
	if err != nil {
		t.Fatal(err)
	}
	n := degraded.Switches()
	total := n * (n - 1) / 2
	if recomputed <= 0 || recomputed > total {
		t.Fatalf("recomputed %d pairs of %d", recomputed, total)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(full.At(i, j)-delta.At(i, j)) > 1e-9 {
				t.Fatalf("delta table diverges at (%d,%d): %v vs %v", i, j, delta.At(i, j), full.At(i, j))
			}
		}
	}
	t.Logf("delta rebuild re-solved %d/%d pairs", recomputed, total)
}

func TestComputeDeltaNilOldFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := topology.RandomIrregular(12, 3, rng, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	tab, recomputed, err := ComputeDelta(net, ud, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := net.Switches()
	if recomputed != n*(n-1)/2 {
		t.Fatalf("recomputed = %d, want all %d pairs", recomputed, n*(n-1)/2)
	}
	if tab.N() != n {
		t.Fatalf("table size %d", tab.N())
	}
}

func TestComputeDeltaSizeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net, err := topology.RandomIrregular(12, 3, rng, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := FromMatrix([][]float64{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ComputeDelta(net, ud, ud, small); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// TestComputeAllocsDoNotGrowWithPairs: a table allocates per worker and
// per switch, never per pair. From 32 to 96 switches the pairs grow
// 9.2×, but Compute's and ComputeDelta's (one link removed) allocations
// may not even triple, where one allocation per pair would grow them
// about 9×.
func TestComputeAllocsDoNotGrowWithPairs(t *testing.T) {
	measure := func(n int) (compute, delta float64) {
		net, err := topology.RandomIrregular(n, 3, rand.New(rand.NewSource(int64(n))), topology.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ud, err := routing.NewUpDown(net, -1)
		if err != nil {
			t.Fatal(err)
		}
		old, err := Compute(net, ud)
		if err != nil {
			t.Fatal(err)
		}
		degraded := withoutOneLink(t, net)
		ud2, err := routing.NewUpDown(degraded, -1)
		if err != nil {
			t.Fatal(err)
		}
		compute = testing.AllocsPerRun(5, func() {
			if _, err := Compute(net, ud); err != nil {
				t.Fatal(err)
			}
		})
		delta = testing.AllocsPerRun(5, func() {
			if _, _, err := ComputeDelta(degraded, ud2, ud, old); err != nil {
				t.Fatal(err)
			}
		})
		return compute, delta
	}
	c32, d32 := measure(32)
	c96, d96 := measure(96)
	t.Logf("Compute %v → %v, ComputeDelta %v → %v allocs from 32 to 96 switches", c32, c96, d32, d96)
	if c96 > 3*c32 || d96 > 3*d32 {
		t.Fatalf("allocations grow with pairs: Compute %v → %v, ComputeDelta %v → %v from 32 to 96 switches", c32, c96, d32, d96)
	}
}
