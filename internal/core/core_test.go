package core

import (
	"context"
	"math/rand"
	"testing"

	"commsched/internal/mapping"
	"commsched/internal/obs"
	"commsched/internal/search"
	"commsched/internal/simnet"
	"commsched/internal/topology"
	"commsched/internal/traffic"
)

// mustCc evaluates a partition and fails the test on error.
func mustCc(t *testing.T, sys *System, p *mapping.Partition) float64 {
	t.Helper()
	q, err := sys.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	return q.Cc
}

func net16(t *testing.T) *topology.Network {
	t.Helper()
	net, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(1)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(net16(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Network().Switches() != 16 {
		t.Fatal("network not retained")
	}
	if sys.DistanceTable().N() != 16 {
		t.Fatal("table size wrong")
	}
	if sys.Routing().Root() < 0 || sys.Routing().Root() >= 16 {
		t.Fatal("no root elected")
	}
	if sys.Evaluator() == nil {
		t.Fatal("nil evaluator")
	}
}

func TestNewSystemExplicitRoot(t *testing.T) {
	root := 5
	sys, err := NewSystem(net16(t), Options{Root: &root})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Routing().Root() != 5 {
		t.Fatalf("root = %d, want 5", sys.Routing().Root())
	}
	bad := 99
	if _, err := NewSystem(net16(t), Options{Root: &bad}); err == nil {
		t.Fatal("out-of-range root accepted")
	}
	neg := -2
	if _, err := NewSystem(net16(t), Options{Root: &neg}); err == nil {
		t.Fatal("negative explicit root accepted")
	}
}

func TestFailedNewSystemEndsSpan(t *testing.T) {
	mem := &obs.Memory{}
	obs.SetSink(mem)
	defer obs.SetSink(nil)
	bad := 99
	if _, err := NewSystem(net16(t), Options{Root: &bad}); err == nil {
		t.Fatal("out-of-range root accepted")
	}
	if _, err := NewSystem(net16(t), Options{Metric: Metric(42)}); err == nil {
		t.Fatal("unknown metric accepted")
	}
	spans := mem.ByName("core.characterize")
	if len(spans) != 2 {
		t.Fatalf("got %d core.characterize records for two failed calls, want 2", len(spans))
	}
	for _, sp := range spans {
		failed := false
		for _, f := range sp.Fields {
			failed = failed || f.Key == "err" && f.Value == true
		}
		if !failed {
			t.Fatalf("failed core.characterize span lacks err=true: %+v", sp.Fields)
		}
	}
}

// TestFailedRunsEndSpans: a cancelled simulation, sweep, sweep batch or
// Tabu search and a rejected schedule still record their spans, marked
// err=true, so a failed job's trace keeps them as the parents of the work
// they started.
func TestFailedRunsEndSpans(t *testing.T) {
	sys, err := NewSystem(net16(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.RandomMapping(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := sys.IntraClusterPattern(p)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := search.BalancedSpec(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	mem := &obs.Memory{}
	obs.SetSink(mem)
	defer obs.SetSink(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := simnet.Config{WarmupCycles: 100, MeasureCycles: 400, Seed: 1}
	sim, err := simnet.New(sys.Network(), sys.Routing(), pattern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunContext(ctx); err == nil {
		t.Error("cancelled RunContext succeeded")
	}
	if _, err := sys.SimulateSweep(ctx, p, cfg, []float64{0.1, 0.2}); err == nil {
		t.Error("cancelled SimulateSweep succeeded")
	}
	if _, err := sys.SimulateSweepMany(ctx, []*mapping.Partition{p, p}, cfg, []float64{0.1}); err == nil {
		t.Error("cancelled SimulateSweepMany succeeded")
	}
	if _, err := sys.Schedule(nil, ScheduleOptions{Clusters: 0}); err == nil {
		t.Error("Schedule without clusters succeeded")
	}
	if _, err := sys.Schedule(ctx, ScheduleOptions{Clusters: 4}); err == nil {
		t.Error("cancelled Schedule succeeded")
	}
	if _, err := search.NewTabu().SearchObjective(ctx, sys.Evaluator(), spec, rand.New(rand.NewSource(1))); err == nil {
		t.Error("cancelled SearchObjective succeeded")
	}
	for name, want := range map[string]int{
		"simnet.run":               1,
		"simnet.sweep":             1,
		"core.simulate_sweep_many": 1,
		"core.schedule":            2, // no clusters, then cancelled
		"search.tabu":              2, // Search under Schedule, SearchObjective
	} {
		var spans []obs.Record
		for _, r := range mem.ByName(name) {
			if r.Kind == "span" {
				spans = append(spans, r)
			}
		}
		if len(spans) != want {
			t.Errorf("%s: %d spans recorded, want %d", name, len(spans), want)
		}
		for _, sp := range spans {
			failed := false
			for _, f := range sp.Fields {
				failed = failed || f.Key == "err" && f.Value == true
			}
			if !failed {
				t.Errorf("%s span lacks err=true: %+v", name, sp.Fields)
			}
		}
	}
}

func TestNewSystemHopMetric(t *testing.T) {
	net := net16(t)
	res, err := NewSystem(net, Options{Metric: MetricResistance})
	if err != nil {
		t.Fatal(err)
	}
	hop, err := NewSystem(net, Options{Metric: MetricHops})
	if err != nil {
		t.Fatal(err)
	}
	// Hop distances are integers >= resistance distances.
	diff := false
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if hop.DistanceTable().At(i, j) < res.DistanceTable().At(i, j)-1e-9 {
				t.Fatalf("hop table below resistance table at (%d,%d)", i, j)
			}
			if hop.DistanceTable().At(i, j) != res.DistanceTable().At(i, j) {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("hop and resistance tables identical — resistance model lost path multiplicity")
	}
	if _, err := NewSystem(net, Options{Metric: Metric(42)}); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestScheduleDefaultTabu(t *testing.T) {
	sys, err := NewSystem(net16(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sys.Schedule(nil, ScheduleOptions{Clusters: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Partition.M() != 4 || sched.Partition.N() != 16 {
		t.Fatal("wrong partition shape")
	}
	if sched.Quality.Cc <= 0 || sched.Quality.FG <= 0 {
		t.Fatalf("degenerate quality: %+v", sched.Quality)
	}
	// The scheduled mapping must beat random mappings on Cc.
	for seed := int64(0); seed < 10; seed++ {
		r, err := sys.RandomMapping(4, seed)
		if err != nil {
			t.Fatal(err)
		}
		if cc := mustCc(t, sys, r); cc >= sched.Quality.Cc {
			t.Fatalf("random mapping (seed %d) Cc %v >= scheduled %v", seed, cc, sched.Quality.Cc)
		}
	}
}

func TestScheduleOptionsValidation(t *testing.T) {
	sys, err := NewSystem(net16(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Schedule(nil, ScheduleOptions{}); err == nil {
		t.Fatal("missing Clusters/Sizes accepted")
	}
	if _, err := sys.Schedule(nil, ScheduleOptions{Clusters: 5}); err == nil {
		t.Fatal("indivisible cluster count accepted")
	}
}

func TestScheduleExplicitSizes(t *testing.T) {
	sys, err := NewSystem(net16(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sys.Schedule(nil, ScheduleOptions{Sizes: []int{2, 6, 8}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Partition.Size(0) != 2 || sched.Partition.Size(1) != 6 || sched.Partition.Size(2) != 8 {
		t.Fatal("explicit sizes not honored")
	}
}

func TestScheduleCustomSearcher(t *testing.T) {
	sys, err := NewSystem(net16(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sys.Schedule(nil, ScheduleOptions{Clusters: 4, Searcher: search.NewGreedy(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Partition == nil {
		t.Fatal("nil partition from custom searcher")
	}
}

func TestScheduleTraceRecording(t *testing.T) {
	sys, err := NewSystem(net16(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sys.Schedule(nil, ScheduleOptions{Clusters: 4, Seed: 1, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Search.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
}

func TestScheduleWeighted(t *testing.T) {
	sys, err := NewSystem(net16(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{4, 4, 4, 4}
	sched, err := sys.ScheduleWeighted(nil, sizes, []float64{50, 1, 1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Partition.M() != 4 {
		t.Fatal("wrong cluster count")
	}
	// The heavy cluster must end up at least as compact as any other: its
	// intra-cluster cost per pair cannot exceed the loosest cluster's.
	ev := sys.Evaluator()
	heavy := ev.ClusterSimilarity(sched.Partition, 0)
	worst := heavy
	for c := 1; c < 4; c++ {
		if v := ev.ClusterSimilarity(sched.Partition, c); v > worst {
			worst = v
		}
	}
	if heavy > worst {
		t.Fatalf("heavy cluster cost %v above loosest cluster %v", heavy, worst)
	}
	if _, err := sys.ScheduleWeighted(nil, sizes, []float64{1, 2}, 3); err == nil {
		t.Fatal("mismatched sizes/weights accepted")
	}
	if _, err := sys.ScheduleWeighted(nil, sizes, []float64{1, 1, 1, -1}, 3); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	sys, err := NewSystem(net16(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sys.Schedule(nil, ScheduleOptions{Clusters: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Simulate(sched.Partition, simnet.Config{
		InjectionRate: 0.05, WarmupCycles: 500, MeasureCycles: 2000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.DeliveredMessages == 0 {
		t.Fatal("nothing delivered end to end")
	}
	// Per-application breakdown is filled automatically from the partition.
	if len(m.PerCluster) != 4 {
		t.Fatalf("PerCluster has %d entries, want 4", len(m.PerCluster))
	}
}

func TestSimulateSweep(t *testing.T) {
	sys, err := NewSystem(net16(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.RandomMapping(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	points, err := sys.SimulateSweep(nil, p, simnet.Config{WarmupCycles: 200, MeasureCycles: 800, Seed: 4},
		simnet.LinearRates(3, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("sweep returned %d points, want 3", len(points))
	}
}

func TestSimulatePattern(t *testing.T) {
	sys, err := NewSystem(net16(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := traffic.NewUniform(sys.Network().Hosts())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.SimulatePattern(u, simnet.Config{
		InjectionRate: 0.05, WarmupCycles: 200, MeasureCycles: 1000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.DeliveredMessages == 0 {
		t.Fatal("uniform pattern delivered nothing")
	}
}

func TestIntraClusterPatternSizeMismatch(t *testing.T) {
	sys, err := NewSystem(net16(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := mapping.Balanced(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.IntraClusterPattern(p); err == nil {
		t.Fatal("mismatched partition accepted")
	}
	if _, err := sys.Simulate(p, simnet.Config{InjectionRate: 0.1}); err == nil {
		t.Fatal("Simulate accepted mismatched partition")
	}
	if _, err := sys.SimulateSweep(nil, p, simnet.Config{}, []float64{0.1}); err == nil {
		t.Fatal("SimulateSweep accepted mismatched partition")
	}
}
