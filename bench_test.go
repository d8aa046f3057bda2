// Package repro_bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks. Each benchmark both *times* the experiment
// and *reports* the paper's quantities as custom benchmark metrics
// (b.ReportMetric), so `go test -bench=. -benchmem` reproduces the
// evaluation in one run:
//
//	BenchmarkFig1TabuTrace        — Figure 1 (Tabu trajectory)
//	BenchmarkFig2Partition16      — Figure 2 (16-switch partition, Cc)
//	BenchmarkFig3Sim16            — Figure 3 (16-switch curves, throughput gain)
//	BenchmarkFig4Partition24      — Figure 4 (rings identified)
//	BenchmarkFig5Sim24            — Figure 5 (24-switch curves, throughput gain)
//	BenchmarkFig6Correlation      — Figure 6 (Cc/performance correlation)
//	BenchmarkClaimTabuVsExhaustive— optimality on small networks
//	BenchmarkClaimHeuristics      — Tabu vs costlier heuristics
//	BenchmarkClaimMultiNetCorrelation — >70% correlation across networks
//	BenchmarkAblation*            — design-choice ablations (DESIGN.md §5)
//	BenchmarkExtension*           — the paper's future-work features
//	BenchmarkMetaTaskHeuristics   — the background's computational side
//
// The simulation scale is reduced from the paper's full windows so the
// whole suite runs in minutes; cmd/paperfigs regenerates the full-scale
// tables.
package main

import (
	"fmt"
	"math/rand"
	"testing"

	"commsched/internal/core"
	"commsched/internal/distance"
	"commsched/internal/experiments"
	"commsched/internal/mapping"
	"commsched/internal/metatask"
	"commsched/internal/procsched"
	"commsched/internal/routing"
	"commsched/internal/simnet"
	"commsched/internal/topology"
	"commsched/internal/traffic"
)

// benchScale keeps the sweep shape of the paper (9 points) with shorter
// measurement windows.
func benchScale() experiments.Scale {
	return experiments.Scale{
		WarmupCycles: 800, MeasureCycles: 3000,
		RandomMappings: 5, SweepPoints: 9, MaxRate: 0.45,
	}
}

// BenchmarkFig1TabuTrace regenerates Figure 1: the value of F at each
// iteration of the Tabu search on the 16-switch network, across the ten
// random restarts.
func BenchmarkFig1TabuTrace(b *testing.B) {
	var r *experiments.Fig1Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.BestF, "bestF")
	b.ReportMetric(float64(len(r.Trace)), "trace-points")
	b.ReportMetric(float64(r.RestartsReachingBest), "restarts-reaching-min")
}

// BenchmarkFig2Partition16 regenerates Figure 2: the 4-cluster partition
// for the 16-switch network and the Cc gap to random mappings.
func BenchmarkFig2Partition16(b *testing.B) {
	var r *experiments.PartitionResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig2(9)
		if err != nil {
			b.Fatal(err)
		}
	}
	bestRandom := 0.0
	for _, m := range r.Randoms {
		if m.Cc > bestRandom {
			bestRandom = m.Cc
		}
	}
	b.ReportMetric(r.OP.Cc, "Cc-OP")
	b.ReportMetric(bestRandom, "Cc-best-random")
}

// BenchmarkFig3Sim16 regenerates Figure 3: latency-vs-traffic for the OP
// and random mappings on the 16-switch network. The paper reports the OP
// throughput ≈85% above the random mappings'.
func BenchmarkFig3Sim16(b *testing.B) {
	var r *experiments.SimResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.OP.Throughput, "throughput-OP")
	b.ReportMetric(r.ThroughputGain, "gain-vs-best-random")
}

// BenchmarkFig4Partition24 regenerates Figure 4: the partition of the
// specially designed 24-switch rings network; the technique must identify
// the rings (identified == 1).
func BenchmarkFig4Partition24(b *testing.B) {
	var r *experiments.PartitionResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig4(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	identified := 0.0
	if r.MatchesGroundTruth {
		identified = 1
	}
	b.ReportMetric(identified, "rings-identified")
	b.ReportMetric(r.OP.Cc, "Cc-OP")
}

// BenchmarkFig5Sim24 regenerates Figure 5: the simulation on the rings
// network, where the paper reports a ≈5x throughput gain.
func BenchmarkFig5Sim24(b *testing.B) {
	var r *experiments.SimResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.OP.Throughput, "throughput-OP")
	b.ReportMetric(r.ThroughputGain, "gain-vs-best-random")
}

// BenchmarkFig6Correlation regenerates Figure 6: the Pearson correlation
// of Cc with accepted traffic at the lowest and highest load points (the
// paper reports ≈0.85 at low load and ≈0.75 in saturation).
func BenchmarkFig6Correlation(b *testing.B) {
	var r *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		sim, err := experiments.Fig3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		r, err = experiments.CorrelationFromSim(sim)
		if err != nil {
			b.Fatal(err)
		}
	}
	lowR, _ := r.PerPoint[0].Best()
	satR, _ := r.PerPoint[len(r.PerPoint)-1].Best()
	b.ReportMetric(lowR, "r-low-load")
	b.ReportMetric(satR, "r-saturation")
}

// BenchmarkClaimTabuVsExhaustive checks the paper's optimality claim on a
// 12-switch instance (small enough to enumerate on every iteration).
func BenchmarkClaimTabuVsExhaustive(b *testing.B) {
	var r *experiments.OptimalityResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.TabuVsExhaustive(12, 500)
		if err != nil {
			b.Fatal(err)
		}
	}
	match := 0.0
	if r.Match {
		match = 1
	}
	b.ReportMetric(match, "tabu-optimal")
	b.ReportMetric(float64(r.ExhaustiveEvals)/float64(r.TabuEvals), "exhaustive/tabu-cost")
}

// BenchmarkClaimHeuristics compares Tabu against SA, GA, GSA, greedy, and
// random sampling on the canonical 16-switch instance.
func BenchmarkClaimHeuristics(b *testing.B) {
	var r *experiments.HeuristicComparison
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.CompareHeuristics(16, 600)
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	if r.TabuAtLeastAsGood {
		best = 1
	}
	b.ReportMetric(best, "tabu-at-least-as-good")
}

// BenchmarkClaimMultiNetCorrelation checks the ">70% correlation on other
// networks" claim across 16/20/24-switch instances.
func BenchmarkClaimMultiNetCorrelation(b *testing.B) {
	sc := benchScale()
	var r *experiments.MultiNetCorrelation
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.CorrelationAcrossNetworks([]int{16, 20, 24}, sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	minR := 1.0
	for i := range r.Sizes {
		if r.LowLoadR[i] < minR {
			minR = r.LowLoadR[i]
		}
		if r.SaturationR[i] < minR {
			minR = r.SaturationR[i]
		}
	}
	b.ReportMetric(minR, "min-correlation")
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblationDeltaVsFull measures the incremental swap evaluation
// against full recomputation — the hot-path design choice every searcher
// relies on.
func BenchmarkAblationDeltaVsFull(b *testing.B) {
	net, err := experiments.Network16()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(net, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := sys.Evaluator()
	p, err := mapping.Random(16, 4, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = e.SwapDelta(p, i%16, (i+5)%16)
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u, v := i%16, (i+5)%16
			p.Swap(u, v)
			_ = e.IntraSum(p)
			p.Swap(u, v)
		}
	})
}

// BenchmarkAblationHopVsResistance compares scheduling quality when the
// search is driven by plain hop counts instead of equivalent resistance:
// it reports the Cc (measured on the *resistance* table for both) so the
// metrics are comparable.
func BenchmarkAblationHopVsResistance(b *testing.B) {
	net, err := experiments.Network16()
	if err != nil {
		b.Fatal(err)
	}
	resSys, err := core.NewSystem(net, core.Options{Metric: core.MetricResistance})
	if err != nil {
		b.Fatal(err)
	}
	hopSys, err := core.NewSystem(net, core.Options{Metric: core.MetricHops})
	if err != nil {
		b.Fatal(err)
	}
	var ccRes, ccHop float64
	for i := 0; i < b.N; i++ {
		sr, err := resSys.Schedule(nil, core.ScheduleOptions{Clusters: 4, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		sh, err := hopSys.Schedule(nil, core.ScheduleOptions{Clusters: 4, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		ccRes = sr.Quality.Cc
		// Score the hop-driven mapping with the resistance-based Cc.
		hq, err := resSys.Evaluate(sh.Partition)
		if err != nil {
			b.Fatal(err)
		}
		ccHop = hq.Cc
	}
	b.ReportMetric(ccRes, "Cc-resistance-driven")
	b.ReportMetric(ccHop, "Cc-hop-driven")
}

// BenchmarkAblationRoutingSupplier compares distance tables built from
// up*/down* legal paths against unrestricted shortest paths.
func BenchmarkAblationRoutingSupplier(b *testing.B) {
	net, err := experiments.Network16()
	if err != nil {
		b.Fatal(err)
	}
	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		b.Fatal(err)
	}
	sp := routing.NewShortestPath(net)
	var diff float64
	for i := 0; i < b.N; i++ {
		tu, err := distance.Compute(net, ud)
		if err != nil {
			b.Fatal(err)
		}
		ts, err := distance.Compute(net, sp)
		if err != nil {
			b.Fatal(err)
		}
		// Mean absolute difference: how much routing restriction distorts
		// the communication-cost model.
		sum, n := 0.0, 0
		for x := 0; x < 16; x++ {
			for y := x + 1; y < 16; y++ {
				d := tu.At(x, y) - ts.At(x, y)
				if d < 0 {
					d = -d
				}
				sum += d
				n++
			}
		}
		diff = sum / float64(n)
	}
	b.ReportMetric(diff, "mean-|updown-shortest|")
}

// BenchmarkAblationVirtualChannels sweeps the VC count — a simulator
// design parameter the paper's methodology (Duato) emphasizes.
func BenchmarkAblationVirtualChannels(b *testing.B) {
	net, err := experiments.Network16()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(net, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := sys.Schedule(nil, core.ScheduleOptions{Clusters: 4, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	for _, vcs := range []int{1, 2, 4} {
		vcs := vcs
		b.Run(map[int]string{1: "vc1", 2: "vc2", 4: "vc4"}[vcs], func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				m, err := sys.Simulate(sched.Partition, simnet.Config{
					VirtualChannels: vcs, InjectionRate: 0.35,
					WarmupCycles: 800, MeasureCycles: 3000, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				acc = m.AcceptedTraffic
			}
			b.ReportMetric(acc, "accepted-traffic")
		})
	}
}

// BenchmarkSimulatorSteadyState times the simulation loop alone: the
// simulator is built and warmed outside the timer, so the measured region
// is the allocation-free steady state (expect ~0 allocs/op).
func BenchmarkSimulatorSteadyState(b *testing.B) {
	net, err := experiments.Network16()
	if err != nil {
		b.Fatal(err)
	}
	rt, err := routing.NewUpDown(net, -1)
	if err != nil {
		b.Fatal(err)
	}
	pattern, err := traffic.NewUniform(net.Hosts())
	if err != nil {
		b.Fatal(err)
	}
	// The rate must sit below uniform-traffic saturation: past saturation
	// the source queues (and the message arena) grow without bound, which
	// is real allocation, not overhead.
	sim, err := simnet.New(net, rt, pattern, simnet.Config{
		InjectionRate: 0.05, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 2000
	sim.Advance(20 * chunk) // warm: populate buffers and the message arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Advance(chunk)
	}
	b.ReportMetric(chunk, "cycles/op")
}

// BenchmarkSimulatorRun times one full-scale figure point per op: 2,000
// warmup and 10,000 measured cycles through core.System.Simulate on the
// seeded random 4-cluster mapping RandomMapping(4, 1), construction
// included, on the Fig 3 and Fig 5 networks below saturation (rate 0.05)
// and deep in it (rate 0.45). ns/switch-cycle divides the time per op by
// switches × cycles, so the networks and loads compare directly.
func BenchmarkSimulatorRun(b *testing.B) {
	nets := []struct {
		name  string
		build func() (*topology.Network, error)
	}{{"n16", experiments.Network16}, {"rings24", experiments.Network24Rings}}
	for _, nc := range nets {
		b.Run(nc.name, func(b *testing.B) {
			net, err := nc.build()
			if err != nil {
				b.Fatal(err)
			}
			sys, err := core.NewSystem(net, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			p, err := sys.RandomMapping(4, 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, rate := range []float64{0.05, 0.45} {
				b.Run(fmt.Sprintf("rate=%v", rate), func(b *testing.B) {
					cfg := simnet.Config{InjectionRate: rate, WarmupCycles: 2000, MeasureCycles: 10000, Seed: 1}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := sys.Simulate(p, cfg); err != nil {
							b.Fatal(err)
						}
					}
					switchCycles := float64(net.Switches() * (cfg.WarmupCycles + cfg.MeasureCycles))
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/switchCycles, "ns/switch-cycle")
				})
			}
		})
	}
}

// BenchmarkExtensionUnequalClusters exercises the future-work feature:
// clusters of unequal size (unequal communication requirements), checking
// that the scheduler still beats random placement.
func BenchmarkExtensionUnequalClusters(b *testing.B) {
	net, err := experiments.Network16()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(net, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sizes := []int{2, 4, 4, 6}
	var gain float64
	for i := 0; i < b.N; i++ {
		sched, err := sys.Schedule(nil, core.ScheduleOptions{Sizes: sizes, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		rnd, err := mapping.RandomSizes(sizes, rand.New(rand.NewSource(100)))
		if err != nil {
			b.Fatal(err)
		}
		rq, err := sys.Evaluate(rnd)
		if err != nil {
			b.Fatal(err)
		}
		gain = sched.Quality.Cc / rq.Cc
	}
	b.ReportMetric(gain, "Cc-gain-vs-random")
}

// BenchmarkExtensionMixedTraffic exercises imperfectly clustered traffic
// (80% intra-cluster): the scheduled mapping should still outperform a
// random one, by a smaller margin.
func BenchmarkExtensionMixedTraffic(b *testing.B) {
	net, err := experiments.Network16()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(net, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := sys.Schedule(nil, core.ScheduleOptions{Clusters: 4, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	rnd, err := sys.RandomMapping(4, 100)
	if err != nil {
		b.Fatal(err)
	}
	run := func(p *mapping.Partition) float64 {
		pat, err := mixedPattern(sys, p, 0.8)
		if err != nil {
			b.Fatal(err)
		}
		m, err := sys.SimulatePattern(pat, simnet.Config{
			InjectionRate: 0.3, WarmupCycles: 800, MeasureCycles: 3000, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		return m.AcceptedTraffic
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = run(sched.Partition) / run(rnd)
	}
	b.ReportMetric(gain, "throughput-gain-80pct-intra")
}

// BenchmarkMetaTaskHeuristics reproduces the Braun-style heuristic
// ranking the paper's background cites: Min-min's makespan relative to
// OLB's on random inconsistent ETC matrices (reported as the OLB/Min-min
// ratio; > 1 means Min-min wins).
func BenchmarkMetaTaskHeuristics(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(7))
		etc, err := metatask.GenerateETC(100, 8, 20, 10, metatask.Inconsistent, rng)
		if err != nil {
			b.Fatal(err)
		}
		olb := (metatask.OLB{}).Map(etc).Makespan
		minmin := (metatask.MinMin{}).Map(etc).Makespan
		ratio = olb / minmin
	}
	b.ReportMetric(ratio, "olb/minmin-makespan")
}

// BenchmarkExtensionProcessLevel exercises the fully generalized
// future-work scheduler: process-level placement with 2 slots per
// processor and non-multiple cluster sizes, reporting the objective gain
// over random placement.
func BenchmarkExtensionProcessLevel(b *testing.B) {
	net, err := experiments.Network16()
	if err != nil {
		b.Fatal(err)
	}
	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := distance.Compute(net, ud)
	if err != nil {
		b.Fatal(err)
	}
	var clusterOf []int
	for c, size := range []int{23, 31, 42} {
		for i := 0; i < size; i++ {
			clusterOf = append(clusterOf, c)
		}
	}
	pr, err := procsched.NewProblem(net, tab, clusterOf, 2)
	if err != nil {
		b.Fatal(err)
	}
	tabu := procsched.NewTabu()
	tabu.Restarts, tabu.MaxIterations = 3, 30
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := procsched.Search(nil, pr, tabu, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		rnd := pr.Cost(pr.RandomAssignment(rand.New(rand.NewSource(2))))
		gain = rnd / res.BestCost
	}
	b.ReportMetric(gain, "objective-gain-vs-random")
}

func mixedPattern(sys *core.System, p *mapping.Partition, intraFrac float64) (traffic.Pattern, error) {
	intra, err := sys.IntraClusterPattern(p)
	if err != nil {
		return nil, err
	}
	uni, err := traffic.NewUniform(sys.Network().Hosts())
	if err != nil {
		return nil, err
	}
	return traffic.NewMixed(intra, uni, intraFrac)
}
