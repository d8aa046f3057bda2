package simnet

import (
	"testing"

	"commsched/internal/routing"
	"commsched/internal/topology"
	"commsched/internal/traffic"
)

func TestLinkLoadsReported(t *testing.T) {
	r := newRig(t, 12, 4, 3, 1, true)
	sim, err := New(r.net, r.rt, r.pattern, Config{
		InjectionRate: 0.2, WarmupCycles: 500, MeasureCycles: 3000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run()
	if len(m.LinkLoads) == 0 {
		t.Fatal("no link loads reported")
	}
	var total int64
	for i, ll := range m.LinkLoads {
		if ll.Utilization < 0 || ll.Utilization > 1+1e-9 {
			t.Fatalf("link %d→%d utilization %v outside [0,1]", ll.From, ll.To, ll.Utilization)
		}
		if !r.net.HasLink(ll.From, ll.To) {
			t.Fatalf("reported load on non-existent link %d→%d", ll.From, ll.To)
		}
		if i > 0 && ll.Utilization > m.LinkLoads[i-1].Utilization {
			t.Fatal("LinkLoads not sorted by descending utilization")
		}
		total += ll.Flits
	}
	if total == 0 {
		t.Fatal("zero flits crossed any link at nonzero load")
	}
}

func TestUpDownConcentratesLoadNearRoot(t *testing.T) {
	// The paper's Section 2 observation: up*/down* overloads links near
	// the root. On a ring rooted at 0 under global uniform traffic, the
	// two root links must carry the most traffic, and the link "opposite"
	// the root (between the two deepest switches) the least — it is never
	// on a legal route except for its endpoints.
	net, err := topology.Ring(6, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := routing.NewUpDown(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := traffic.NewUniform(net.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(net, rt, pattern, Config{
		InjectionRate: 0.1, WarmupCycles: 1000, MeasureCycles: 6000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run()
	util := map[[2]int]float64{}
	for _, ll := range m.LinkLoads {
		a, b := ll.From, ll.To
		if a > b {
			a, b = b, a
		}
		util[[2]int{a, b}] += ll.Utilization
	}
	rootLoad := util[[2]int{0, 1}] + util[[2]int{0, 5}]
	oppositeLoad := util[[2]int{2, 3}] + util[[2]int{3, 4}]
	if rootLoad <= oppositeLoad {
		t.Fatalf("root links load %v not above opposite links %v — up*/down* hot-root effect missing",
			rootLoad, oppositeLoad)
	}
}

func TestDeterministicRoutingLowersThroughput(t *testing.T) {
	// Adaptive routing over all minimal legal continuations must accept at
	// least as much saturated traffic as single-path deterministic routing.
	r := newRig(t, 16, 4, 2, 9, true)
	run := func(det bool) float64 {
		sim, err := New(r.net, r.rt, r.pattern, Config{
			InjectionRate: 0.5, WarmupCycles: 1000, MeasureCycles: 4000, Seed: 13,
			DeterministicRouting: det,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run().AcceptedTraffic
	}
	adaptive, deterministic := run(false), run(true)
	if deterministic > adaptive*1.05 {
		t.Fatalf("deterministic routing (%v) beat adaptive (%v) — suspicious", deterministic, adaptive)
	}
	if deterministic <= 0 {
		t.Fatal("deterministic routing delivered nothing")
	}
}

func TestBimodalMessageSizes(t *testing.T) {
	r := newRig(t, 12, 4, 3, 1, true)
	// 90% short 4-flit control messages, 10% long 64-flit data messages.
	sim, err := New(r.net, r.rt, r.pattern, Config{
		InjectionRate: 0.15, MessageFlits: 4,
		BimodalFlits: 64, BimodalFraction: 0.1,
		WarmupCycles: 500, MeasureCycles: 5000, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run()
	if m.DeliveredMessages == 0 {
		t.Fatal("nothing delivered under bimodal sizes")
	}
	// Offered flit traffic still tracks the injection rate (scaled by the
	// mean message size): 0.15 × 4 hosts/switch = 0.6 flits/switch/cycle.
	want := 0.15 * 4
	if m.OfferedTraffic < want*0.8 || m.OfferedTraffic > want*1.2 {
		t.Fatalf("offered %.4f, want ≈ %.4f (size mix must not change flit load)", m.OfferedTraffic, want)
	}
	// Long messages make p99 latency far exceed p50.
	if m.LatencyP99 < m.LatencyP50*2 {
		t.Fatalf("p99 %.1f vs p50 %.1f: bimodal mix should widen the distribution",
			m.LatencyP99, m.LatencyP50)
	}
}

func TestBimodalValidation(t *testing.T) {
	r := newRig(t, 8, 4, 1, 1, false)
	bad := []Config{
		{BimodalFlits: -1},
		{BimodalFraction: -0.1},
		{BimodalFraction: 1.5},
		{BimodalFraction: 0.5}, // fraction without size
	}
	for i, cfg := range bad {
		if _, err := New(r.net, r.rt, r.pattern, cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestBimodalDrains(t *testing.T) {
	r := newRig(t, 8, 4, 2, 1, true)
	cfg := Config{
		InjectionRate: 0.2, MessageFlits: 4,
		BimodalFlits: 32, BimodalFraction: 0.2,
		WarmupCycles: 0, MeasureCycles: 1500, Seed: 31,
	}
	sim, err := New(r.net, r.rt, r.pattern, cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	sim.measuring = true
	for c := 0; c < 1500; c++ {
		sim.step()
	}
	sim.cfg.InjectionRate = 0
	for c := 0; c < 60000; c++ {
		sim.step()
	}
	if got := sim.inflight(); got != 0 {
		t.Fatalf("%d flits stuck after drain with mixed sizes", got)
	}
}

func TestParallelSweepMatchesSequential(t *testing.T) {
	// Sweep runs points concurrently; the result must equal a hand-rolled
	// sequential execution with the same per-point seeds.
	r := newRig(t, 12, 4, 6, 2, true)
	cfg := Config{WarmupCycles: 200, MeasureCycles: 1500, Seed: 23}
	rates := LinearRates(5, 0.4)
	par, err := Sweep(nil, r.net, r.rt, r.pattern, cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range rates {
		c := cfg
		c.InjectionRate = rate
		c.Seed = cfg.Seed*1000003 + int64(i)
		sim, err := New(r.net, r.rt, r.pattern, c)
		if err != nil {
			t.Fatal(err)
		}
		seq := sim.Run()
		got := par[i].Metrics
		if got.AcceptedTraffic != seq.AcceptedTraffic || got.AvgLatency != seq.AvgLatency ||
			got.GeneratedMessages != seq.GeneratedMessages {
			t.Fatalf("point %d: parallel %s != sequential %s", i, got.String(), seq.String())
		}
	}
}

func TestDeterministicRoutingDrains(t *testing.T) {
	// Deterministic up*/down* is also deadlock-free; a drain must empty
	// the network.
	r := newRig(t, 12, 4, 5, 2, true)
	cfg := Config{InjectionRate: 0.3, WarmupCycles: 0, MeasureCycles: 1500, Seed: 17,
		DeterministicRouting: true}
	sim, err := New(r.net, r.rt, r.pattern, cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	sim.measuring = true
	for c := 0; c < 1500; c++ {
		sim.step()
	}
	sim.cfg.InjectionRate = 0
	for c := 0; c < 60000; c++ {
		sim.step()
	}
	if got := sim.inflight(); got != 0 {
		t.Fatalf("%d flits stuck after drain under deterministic routing", got)
	}
}

func TestCutThroughSwitching(t *testing.T) {
	r := newRig(t, 12, 4, 3, 1, true)
	// Cut-through needs buffers that hold a whole message.
	cfg := Config{
		InjectionRate: 0.2, MessageFlits: 8, BufferFlits: 8,
		CutThrough: true, WarmupCycles: 500, MeasureCycles: 3000, Seed: 41,
	}
	sim, err := New(r.net, r.rt, r.pattern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run()
	if m.DeliveredMessages == 0 {
		t.Fatal("cut-through delivered nothing")
	}
	// Undersized buffers must be rejected.
	bad := cfg
	bad.BufferFlits = 4
	if _, err := New(r.net, r.rt, r.pattern, bad); err == nil {
		t.Fatal("cut-through with undersized buffers accepted")
	}
	// Bimodal: the larger size bounds the requirement.
	bad2 := cfg
	bad2.BimodalFlits, bad2.BimodalFraction = 32, 0.1
	if _, err := New(r.net, r.rt, r.pattern, bad2); err == nil {
		t.Fatal("cut-through with undersized buffers for bimodal accepted")
	}
}

func TestCutThroughDrains(t *testing.T) {
	r := newRig(t, 12, 4, 5, 2, true)
	cfg := Config{
		InjectionRate: 0.3, MessageFlits: 8, BufferFlits: 8,
		CutThrough: true, WarmupCycles: 0, MeasureCycles: 1500, Seed: 43,
	}
	sim, err := New(r.net, r.rt, r.pattern, cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	sim.measuring = true
	for c := 0; c < 1500; c++ {
		sim.step()
	}
	if !sim.Drain(60000) {
		t.Fatalf("%d flits stuck after cut-through drain", sim.inflight())
	}
	if sim.metrics.deliveredFlits != sim.metrics.offeredFlits {
		t.Fatal("flits lost under cut-through")
	}
}
