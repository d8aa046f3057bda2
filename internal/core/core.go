// Package core is the public façade of the library: it bundles a network
// with its routing algorithm and table of equivalent distances into a
// System, exposes the paper's quality criterion, runs the
// communication-aware scheduling technique (Tabu search by default), and
// drives the flit-level simulator to evaluate mappings — the complete
// pipeline of the paper in a handful of calls:
//
//	net, _ := topology.RandomIrregular(16, 3, rng, topology.Config{})
//	sys, _ := core.NewSystem(net, core.Options{})
//	sched, _ := sys.Schedule(core.ScheduleOptions{Clusters: 4, Seed: 1})
//	metrics, _ := sys.Simulate(sched.Partition, simnet.Config{InjectionRate: 0.1})
package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"

	"commsched/internal/distance"
	"commsched/internal/mapping"
	"commsched/internal/obs"
	"commsched/internal/par"
	"commsched/internal/quality"
	"commsched/internal/routing"
	"commsched/internal/runstate"
	"commsched/internal/search"
	"commsched/internal/simnet"
	"commsched/internal/topology"
	"commsched/internal/traffic"
)

// Metric selects the distance model driving the scheduler.
type Metric int

const (
	// MetricResistance is the paper's equivalent-distance model
	// (electrical resistance over shortest legal paths).
	MetricResistance Metric = iota
	// MetricHops uses plain legal hop counts — the ablation baseline.
	MetricHops
)

// Options configures system construction.
type Options struct {
	// Root pins the up*/down* spanning-tree root to a specific switch;
	// nil auto-elects (highest degree, lowest ID on ties).
	Root *int
	// Metric selects the distance model (default MetricResistance).
	Metric Metric
}

// System is a characterized network: topology + routing + distance table.
type System struct {
	net    *topology.Network
	rt     *routing.UpDown
	tab    *distance.Table
	eval   *quality.Evaluator
	metric Metric

	fpOnce sync.Once
	fp     string
}

// fingerprint identifies the characterized system (topology + routing
// root + distance metric) for durable unit keys: two systems with equal
// fingerprints produce interchangeable checkpoint units.
func (s *System) fingerprint() string {
	s.fpOnce.Do(func() {
		data, err := s.net.MarshalJSON()
		if err != nil {
			// An unserializable network disables checkpointing for this
			// system rather than risking a key collision.
			s.fp = ""
			return
		}
		h := sha256.New()
		h.Write(data)
		fmt.Fprintf(h, "|root=%d|metric=%d", s.rt.Root(), s.metric)
		s.fp = fmt.Sprintf("%x", h.Sum(nil)[:8])
	})
	return s.fp
}

// NewSystem characterizes a network: builds up*/down* routing and computes
// the table of equivalent distances (or hop distances, per opts.Metric).
func NewSystem(net *topology.Network, opts Options) (*System, error) {
	sp := obs.StartSpan("core.characterize",
		obs.F("switches", net.Switches()),
		obs.F("hosts", net.Hosts()),
		obs.F("metric", int(opts.Metric)))
	fail := func(err error) (*System, error) {
		sp.End(obs.F("err", true))
		return nil, err
	}
	root := -1
	if opts.Root != nil {
		root = *opts.Root
		if root < 0 || root >= net.Switches() {
			return fail(fmt.Errorf("core: root %d out of range [0,%d)", root, net.Switches()))
		}
	}
	rt, err := routing.NewUpDown(net, root)
	if err != nil {
		return fail(err)
	}
	var tab *distance.Table
	switch opts.Metric {
	case MetricResistance:
		tab, err = distance.Compute(net, rt)
		if err != nil {
			return fail(err)
		}
	case MetricHops:
		tab = distance.HopTable(net, rt)
	default:
		return fail(fmt.Errorf("core: unknown metric %d", opts.Metric))
	}
	sp.End(obs.F("root", rt.Root()))
	return &System{net: net, rt: rt, tab: tab, eval: quality.NewEvaluator(tab), metric: opts.Metric}, nil
}

// Network returns the system's topology.
func (s *System) Network() *topology.Network { return s.net }

// Routing returns the up*/down* routing structure.
func (s *System) Routing() *routing.UpDown { return s.rt }

// DistanceTable returns the table of equivalent distances.
func (s *System) DistanceTable() *distance.Table { return s.tab }

// Evaluator returns the quality evaluator over the distance table.
func (s *System) Evaluator() *quality.Evaluator { return s.eval }

// Quality is the paper's full quality report for one mapping.
type Quality struct {
	// FG is the global similarity function (intra-cluster cost).
	FG float64
	// DG is the global dissimilarity function (inter-cluster cost).
	DG float64
	// Cc = DG / FG is the clustering coefficient the scheduler maximizes.
	Cc float64
}

// Evaluate computes F_G, D_G, and Cc for a partition. A partition that
// does not cover the system's switches is rejected with an error (the
// underlying evaluator treats a mismatch as a programming error and
// panics; the façade keeps that panic unreachable).
func (s *System) Evaluate(p *mapping.Partition) (Quality, error) {
	if p == nil {
		return Quality{}, fmt.Errorf("core: Evaluate needs a partition")
	}
	if p.N() != s.net.Switches() {
		return Quality{}, fmt.Errorf("core: partition covers %d switches, system has %d", p.N(), s.net.Switches())
	}
	return Quality{
		FG: s.eval.Similarity(p),
		DG: s.eval.Dissimilarity(p),
		Cc: s.eval.ClusteringCoefficient(p),
	}, nil
}

// ScheduleOptions configures a scheduling run.
type ScheduleOptions struct {
	// Clusters is the number of equal-size logical clusters (ignored when
	// Sizes is set). The paper's evaluation uses 4.
	Clusters int
	// Sizes optionally gives explicit cluster sizes in switches (the
	// unequal-requirements extension).
	Sizes []int
	// Searcher overrides the heuristic (default: the paper's Tabu).
	Searcher search.Searcher
	// Seed drives the random restarts.
	Seed int64
	// RecordTrace asks Tabu-like searchers for their trajectory.
	RecordTrace bool
}

// Schedule is the result of the communication-aware scheduling technique.
type Schedule struct {
	// Partition is the chosen mapping of clusters to switches.
	Partition *mapping.Partition
	// Quality holds F_G, D_G, and Cc of the partition.
	Quality Quality
	// Search carries the raw searcher result (trace, cost counters).
	Search *search.Result
}

// Schedule runs the scheduling technique: it searches for the partition
// minimizing F_G (maximizing Cc) over the system's distance table. A nil
// ctx means context.Background; cancelling it stops the search promptly
// with an error wrapping ctx.Err().
func (s *System) Schedule(ctx context.Context, opts ScheduleOptions) (*Schedule, error) {
	sp, ctx := obs.StartSpanCtx(ctx, "core.schedule",
		obs.F("clusters", opts.Clusters),
		obs.F("seed", opts.Seed))
	fail := func(err error) (*Schedule, error) {
		sp.End(obs.F("err", true))
		return nil, err
	}
	var spec search.Spec
	var err error
	if opts.Sizes != nil {
		if err := s.validateSizes(opts.Sizes); err != nil {
			return fail(err)
		}
		spec = search.Spec{Sizes: opts.Sizes}
	} else {
		if opts.Clusters <= 0 {
			return fail(fmt.Errorf("core: ScheduleOptions needs Clusters or Sizes"))
		}
		spec, err = search.BalancedSpec(s.net.Switches(), opts.Clusters)
		if err != nil {
			return fail(err)
		}
	}
	searcher := opts.Searcher
	if searcher == nil {
		tb := search.NewTabu()
		tb.RecordTrace = opts.RecordTrace
		searcher = tb
	}
	// A whole scheduling run (10 Tabu restarts) is one durable unit: the
	// key pins the system, the cluster spec, the searcher's type and
	// configuration, and the seed — everything its result depends on.
	key := ""
	if runstate.Enabled() && s.fingerprint() != "" {
		key = fmt.Sprintf("schedule/sys=%s/%s", s.fingerprint(), runstate.KeyHash(struct {
			Sizes    []int
			Searcher string
			Seed     int64
		}{spec.Sizes, fmt.Sprintf("%T%+v", searcher, searcher), opts.Seed}))
		if sched, ok := s.lookupSchedule(key); ok {
			sp.End(obs.F("cc", sched.Quality.Cc), obs.F("replayed", true))
			return sched, nil
		}
	}
	res, err := searcher.Search(ctx, s.eval, spec, rand.New(rand.NewSource(opts.Seed)))
	if err != nil {
		return fail(err)
	}
	q, err := s.Evaluate(res.Best)
	if err != nil {
		return fail(err)
	}
	if key != "" {
		runstate.RecordCtx(ctx, key, scheduleUnit{
			Assign:       res.Best.Assign(),
			M:            res.Best.M(),
			BestIntraSum: res.BestIntraSum,
			BestF:        res.BestF,
			Trace:        res.Trace,
			Evaluations:  res.Evaluations,
			Iterations:   res.Iterations,
		})
	}
	sp.End(obs.F("cc", q.Cc), obs.F("fg", q.FG), obs.F("evaluations", res.Evaluations))
	return &Schedule{
		Partition: res.Best,
		Quality:   q,
		Search:    res,
	}, nil
}

// scheduleUnit is the durable form of a search.Result: the winning
// assignment plus every numeric field a caller can observe, so a
// replayed Schedule is indistinguishable from a recomputed one.
type scheduleUnit struct {
	Assign       []int               `json:"assign"`
	M            int                 `json:"m"`
	BestIntraSum float64             `json:"best_intra_sum"`
	BestF        float64             `json:"best_f"`
	Trace        []search.TracePoint `json:"trace,omitempty"`
	Evaluations  int                 `json:"evaluations"`
	Iterations   int                 `json:"iterations"`
}

// lookupSchedule replays a checkpointed scheduling run. Any decoding or
// validation failure reads as a miss: the run is recomputed (and the
// stale unit overwritten), never trusted blindly.
func (s *System) lookupSchedule(key string) (*Schedule, bool) {
	var u scheduleUnit
	if !runstate.Lookup(key, &u) {
		return nil, false
	}
	p, err := mapping.New(u.Assign, u.M)
	if err != nil {
		return nil, false
	}
	q, err := s.Evaluate(p)
	if err != nil {
		return nil, false
	}
	return &Schedule{
		Partition: p,
		Quality:   q,
		Search: &search.Result{
			Best:         p,
			BestIntraSum: u.BestIntraSum,
			BestF:        u.BestF,
			Trace:        u.Trace,
			Evaluations:  u.Evaluations,
			Iterations:   u.Iterations,
		},
	}, true
}

// validateSizes checks an explicit cluster-size vector against the
// system before it can reach the evaluator (whose mismatch handling is a
// panic, not an error).
func (s *System) validateSizes(sizes []int) error {
	if len(sizes) == 0 {
		return fmt.Errorf("core: empty cluster-size list")
	}
	total := 0
	for c, sz := range sizes {
		if sz <= 0 {
			return fmt.Errorf("core: cluster %d has non-positive size %d", c, sz)
		}
		total += sz
	}
	if total != s.net.Switches() {
		return fmt.Errorf("core: cluster sizes sum to %d, system has %d switches", total, s.net.Switches())
	}
	return nil
}

// ScheduleWeighted runs the scheduling technique with per-cluster traffic
// weights — the paper's future-work extension where applications have
// unequal communication requirements. Sizes[i] is cluster i's switch
// count, Weights[i] its relative traffic intensity; heavier clusters get
// the better-connected switch sets.
// A nil ctx means context.Background.
func (s *System) ScheduleWeighted(ctx context.Context, sizes []int, weights []float64, seed int64) (*Schedule, error) {
	if len(sizes) != len(weights) {
		return nil, fmt.Errorf("core: %d sizes vs %d weights", len(sizes), len(weights))
	}
	if err := s.validateSizes(sizes); err != nil {
		return nil, err
	}
	we, err := quality.NewWeightedEvaluator(s.tab, weights)
	if err != nil {
		return nil, err
	}
	res, err := search.NewTabu().SearchObjective(ctx, we, search.Spec{Sizes: sizes}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	q, err := s.Evaluate(res.Best)
	if err != nil {
		return nil, err
	}
	return &Schedule{
		Partition: res.Best,
		Quality:   q,
		Search:    res,
	}, nil
}

// RandomMapping draws one random balanced mapping — the paper's R_i
// baseline points.
func (s *System) RandomMapping(clusters int, seed int64) (*mapping.Partition, error) {
	return mapping.Random(s.net.Switches(), clusters, rand.New(rand.NewSource(seed)))
}

// IntraClusterPattern builds the paper's traffic pattern (every message to
// a peer of the sender's own logical cluster) for a partition.
func (s *System) IntraClusterPattern(p *mapping.Partition) (traffic.Pattern, error) {
	if p == nil {
		return nil, fmt.Errorf("core: IntraClusterPattern needs a partition")
	}
	pm, err := mapping.NewProcessMap(s.net, p)
	if err != nil {
		return nil, err
	}
	return traffic.NewIntraCluster(pm)
}

// Simulate runs the flit-level simulator for one mapping under the
// paper's intra-cluster workload at the configured injection rate. When
// cfg.HostCluster is unset, it is filled from the partition so the
// returned metrics include the per-application breakdown.
func (s *System) Simulate(p *mapping.Partition, cfg simnet.Config) (simnet.Metrics, error) {
	defer obs.StartSpan("core.simulate", obs.F("rate", cfg.InjectionRate)).End()
	if p == nil {
		return simnet.Metrics{}, fmt.Errorf("core: Simulate needs a partition")
	}
	pm, err := mapping.NewProcessMap(s.net, p)
	if err != nil {
		return simnet.Metrics{}, err
	}
	pattern, err := traffic.NewIntraCluster(pm)
	if err != nil {
		return simnet.Metrics{}, err
	}
	if cfg.HostCluster == nil {
		labels := make([]int, s.net.Hosts())
		for h := range labels {
			labels[h] = pm.HostCluster(h)
		}
		cfg.HostCluster = labels
	}
	sim, err := simnet.New(s.net, s.rt, pattern, cfg)
	if err != nil {
		return simnet.Metrics{}, err
	}
	return sim.Run(), nil
}

// SimulateSweep runs the simulator across a load ladder (the paper's
// S1…S9) for one mapping. A nil ctx means context.Background;
// cancellation stops all in-flight runs promptly.
func (s *System) SimulateSweep(ctx context.Context, p *mapping.Partition, cfg simnet.Config, rates []float64) ([]simnet.SweepPoint, error) {
	pattern, err := s.IntraClusterPattern(p)
	if err != nil {
		return nil, err
	}
	if runstate.Enabled() && s.fingerprint() != "" {
		// Scope every sweep point to this exact (system, mapping) pair so
		// checkpointed points can never leak across figures or mappings.
		ctx = runstate.WithScope(ctx,
			fmt.Sprintf("sys=%s/map=%s", s.fingerprint(), runstate.KeyHash(p.Assign())))
	}
	return simnet.Sweep(ctx, s.net, s.rt, pattern, cfg, rates)
}

// SimulateSweepMany runs SimulateSweep for several mappings and returns
// the sweeps in input order. The mappings execute concurrently (each
// sweep additionally parallelizes over its rates); every run stays
// deterministic per (mapping, rate) seed, so the result is identical to
// calling SimulateSweep in a loop. A nil ctx means context.Background; a
// cancellation or first error stops the remaining work.
func (s *System) SimulateSweepMany(ctx context.Context, ps []*mapping.Partition, cfg simnet.Config, rates []float64) ([][]simnet.SweepPoint, error) {
	sp, ctx := obs.StartSpanCtx(ctx, "core.simulate_sweep_many",
		obs.F("mappings", len(ps)), obs.F("points", len(rates)))
	out := make([][]simnet.SweepPoint, len(ps))
	err := par.ForEach(ctx, len(ps), func(ctx context.Context, i int) error {
		pts, err := s.SimulateSweep(ctx, ps[i], cfg, rates)
		if err != nil {
			return fmt.Errorf("core: sweep for mapping %d: %w", i, err)
		}
		out[i] = pts
		return nil
	})
	if err != nil {
		sp.End(obs.F("err", true))
		return nil, err
	}
	sp.End()
	return out, nil
}

// SimulatePattern runs the simulator with an arbitrary traffic pattern —
// the future-work extension beyond pure intra-cluster traffic.
func (s *System) SimulatePattern(pattern traffic.Pattern, cfg simnet.Config) (simnet.Metrics, error) {
	sim, err := simnet.New(s.net, s.rt, pattern, cfg)
	if err != nil {
		return simnet.Metrics{}, err
	}
	return sim.Run(), nil
}
