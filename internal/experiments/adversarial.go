package experiments

// PISA-style adversarial instance search (PAPERS.md: "PISA: An
// Adversarial Approach To Comparing Task Graph Scheduling Algorithms"):
// scheduler comparisons on a fixed benchmark say little, because each
// scheduler has instance families where it loses. This driver actively
// *searches* for those instances: starting from a seeded task graph and
// a processor placement on the paper's 16-switch fabric, it hill-climbs
// over instance perturbations — compute costs, edge volumes, edge
// rewires, and processor-to-switch placement (which re-prices
// communication through the equivalent-distance table) — maximizing the
// makespan ratio between two schedulers of the portfolio. The emitted
// figure family reports, per DAG family and restart, how large a gap
// the adversary found between plain HEFT and the Tabu-refined placement.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"commsched/internal/core"
	"commsched/internal/heft"
	"commsched/internal/metatask"
	"commsched/internal/obs"
	"commsched/internal/par"
	"commsched/internal/runstate"
	"commsched/internal/search"
	"commsched/internal/stats"
)

// AdvSeedBase numbers the adversarial climbs (one derived seed per
// family × restart).
const AdvSeedBase = 900

// AdvConfig shapes one adversarial search run. The result is a pure
// function of its fields.
type AdvConfig struct {
	// Families are the DAG generator families to attack
	// ("layered", "forkjoin", "random").
	Families []string
	// Restarts is the number of independent climbs per family.
	Restarts int
	// Steps is the number of perturbations attempted per climb.
	Steps int
	// Tasks sizes the baseline instances (family generators derive their
	// shape parameters from it).
	Tasks int
	// Procs is the processor count; processors live on switches of the
	// canonical 16-switch network and communicate at equivalent-distance
	// cost.
	Procs int
	// Seed drives every climb (combined with AdvSeedBase and the climb
	// index).
	Seed int64
}

// FullAdvConfig is the paper-scale adversarial search.
func FullAdvConfig() AdvConfig {
	return AdvConfig{
		Families: []string{"layered", "forkjoin", "random"},
		Restarts: 4, Steps: 60, Tasks: 40, Procs: 4, Seed: 1,
	}
}

// QuickAdvConfig is the reduced scale for tests and smoke runs.
func QuickAdvConfig() AdvConfig {
	return AdvConfig{
		Families: []string{"layered", "forkjoin", "random"},
		Restarts: 2, Steps: 48, Tasks: 24, Procs: 4, Seed: 1,
	}
}

// validate rejects configurations the climb cannot run.
func (c AdvConfig) validate() error {
	if len(c.Families) == 0 {
		return fmt.Errorf("experiments: no DAG families")
	}
	for _, f := range c.Families {
		switch f {
		case "layered", "forkjoin", "random":
		default:
			return fmt.Errorf("experiments: unknown DAG family %q", f)
		}
	}
	if c.Restarts < 1 || c.Steps < 0 {
		return fmt.Errorf("experiments: need restarts >= 1 and steps >= 0, got %d/%d", c.Restarts, c.Steps)
	}
	if c.Tasks < 8 || c.Procs < 2 {
		return fmt.Errorf("experiments: need tasks >= 8 and procs >= 2, got %d/%d", c.Tasks, c.Procs)
	}
	return nil
}

// AdvRow is one climb's outcome: how far the adversary pushed the
// makespan ratio scheduler A / scheduler B on this family.
type AdvRow struct {
	// Family is the DAG generator family under attack.
	Family string
	// Restart indexes the climb within the family.
	Restart int
	// Tasks and Edges describe the final adversarial instance.
	Tasks, Edges int
	// StartRatio is the makespan ratio of the unperturbed seeded
	// instance; BestRatio is the ratio of the worst instance found.
	StartRatio, BestRatio float64
	// HeftMakespan and RefinedMakespan are the two schedulers' makespans
	// on the best adversarial instance.
	HeftMakespan, RefinedMakespan float64
	// Accepted counts hill-climb steps that improved the ratio.
	Accepted int
	// Validated counts schedule pairs checked against the
	// schedule-validity invariants during the climb (every evaluation
	// validates both schedules).
	Validated int
}

// AdvResult aggregates the adversarial search.
type AdvResult struct {
	Rows []AdvRow
	// BestRatio is the largest gap across all climbs; BestFamily the
	// family it was found in.
	BestRatio  float64
	BestFamily string
	// Validated sums the per-climb validation counts.
	Validated int
}

// AdvGapTarget is the acceptance bar: the search must find at least one
// family where HEFT is ≥ 1.2× worse than the Tabu-refined placement.
const AdvGapTarget = 1.2

// advInstance is one point of the adversarial search space: a task
// graph plus a processor-to-switch placement.
type advInstance struct {
	dag        *metatask.DAG
	procSwitch []int
}

// clone deep-copies the instance so a rejected mutation can be
// discarded.
func (in advInstance) clone() advInstance {
	return advInstance{dag: in.dag.Clone(), procSwitch: append([]int(nil), in.procSwitch...)}
}

// seedInstance generates the unperturbed instance of a family. Shape
// parameters derive from cfg.Tasks; heterogeneity and CCR are fixed in
// the adversarial regime where list schedulers are known to be
// fallible (high heterogeneity, communication on par with compute).
func seedInstance(cfg AdvConfig, family string, switches int, rng *rand.Rand) (advInstance, error) {
	const (
		hetero = 2.0
		ccr    = 1.5
	)
	var (
		d   *metatask.DAG
		err error
	)
	switch family {
	case "layered":
		width := 4
		layers := cfg.Tasks / width
		if layers < 2 {
			layers = 2
		}
		d, err = metatask.GenerateLayeredDAG(layers, width, cfg.Procs, hetero, ccr, rng)
	case "forkjoin":
		fanout := 5
		stages := cfg.Tasks / (fanout + 1)
		if stages < 1 {
			stages = 1
		}
		d, err = metatask.GenerateForkJoinDAG(stages, fanout, cfg.Procs, hetero, ccr, rng)
	case "random":
		d, err = metatask.GenerateRandomDAG(cfg.Tasks, cfg.Procs, 0.2, hetero, ccr, rng)
	default:
		err = fmt.Errorf("experiments: unknown DAG family %q", family)
	}
	if err != nil {
		return advInstance{}, err
	}
	// Processors start spread evenly across the fabric.
	procSwitch := make([]int, cfg.Procs)
	for p := range procSwitch {
		procSwitch[p] = p * switches / cfg.Procs
	}
	return advInstance{dag: d, procSwitch: procSwitch}, nil
}

// mutate proposes one random perturbation of the instance. It returns
// the original unchanged when the drawn mutation is inapplicable (the
// rng consumption stays deterministic either way).
func mutate(in advInstance, switches int, rng *rand.Rand) advInstance {
	out := in.clone()
	d := out.dag
	switch rng.Intn(4) {
	case 0: // rescale one compute cost
		t := rng.Intn(d.Tasks())
		p := rng.Intn(d.Procs())
		f := 0.3 + 2.7*rng.Float64()
		c := d.Comp[t][p] * f
		if c < 0.1 {
			c = 0.1
		}
		if c > 1e4 {
			c = 1e4
		}
		d.Comp[t][p] = c
	case 1: // rescale one edge's data volume
		if len(d.Edges) == 0 {
			return in
		}
		e := rng.Intn(len(d.Edges))
		f := 0.3 + 2.7*rng.Float64()
		v := d.Edges[e].Data * f
		if v > 1e4 {
			v = 1e4
		}
		d.Edges[e].Data = v
	case 2: // rewire: drop one removable edge, add a fresh forward edge
		edges := append([]metatask.DAGEdge(nil), d.Edges...)
		if len(edges) > 1 {
			drop := rng.Intn(len(edges))
			// Removal must keep the single-entry contract: the target
			// needs another predecessor.
			if len(d.Pred(edges[drop].To)) > 1 {
				edges = append(edges[:drop], edges[drop+1:]...)
			}
		}
		i := rng.Intn(d.Tasks())
		j := rng.Intn(d.Tasks())
		if i > j {
			i, j = j, i
		}
		data := 0.5 + 4*rng.Float64()
		if i != j {
			edges = append(edges, metatask.DAGEdge{From: i, To: j, Data: data})
		}
		nd, err := metatask.NewDAG(d.Name, d.Comp, edges)
		if err != nil {
			// Duplicate edge or similar: skip this mutation.
			return in
		}
		out.dag = nd
	case 3: // move one processor to another switch
		p := rng.Intn(len(out.procSwitch))
		out.procSwitch[p] = rng.Intn(switches)
	}
	return out
}

// advEval scores an instance: both schedulers run, both schedules are
// validated, and the makespan ratio HEFT / Tabu-refined is returned
// (≥ 1 up to float noise — the refinement warm-starts at HEFT's
// placement). The evaluation is a pure function of the instance and
// climbSeed.
func advEval(ctx context.Context, tab *core.System, in advInstance, climbSeed int64) (ratio, heftMk, refinedMk float64, err error) {
	cm, err := heft.CommFromTable(tab.DistanceTable(), in.procSwitch)
	if err != nil {
		return 0, 0, 0, err
	}
	hs, err := heft.ScheduleDAG(in.dag, cm)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := heft.Validate(in.dag, cm, hs); err != nil {
		return 0, 0, 0, fmt.Errorf("HEFT schedule invalid: %w", err)
	}
	rs, _, err := heft.RefinePlacement(ctx, in.dag, cm, hs, search.NewTabu(), rand.New(rand.NewSource(climbSeed)))
	if err != nil {
		return 0, 0, 0, err
	}
	if err := heft.Validate(in.dag, cm, rs); err != nil {
		return 0, 0, 0, fmt.Errorf("refined schedule invalid: %w", err)
	}
	if rs.Makespan <= 0 {
		return 0, 0, 0, fmt.Errorf("degenerate refined makespan %g", rs.Makespan)
	}
	return hs.Makespan / rs.Makespan, hs.Makespan, rs.Makespan, nil
}

// advClimb runs one hill-climb: Steps seeded perturbations, keeping
// every instance that widens the gap between the two schedulers.
func advClimb(ctx context.Context, cfg AdvConfig, sys *core.System, family string, restart int) (AdvRow, error) {
	climbSeed := cfg.Seed*1_000_003 + AdvSeedBase + int64(restart)
	for _, ch := range family {
		climbSeed = climbSeed*31 + int64(ch)
	}
	rng := rand.New(rand.NewSource(climbSeed))
	switches := sys.Network().Switches()

	cur, err := seedInstance(cfg, family, switches, rng)
	if err != nil {
		return AdvRow{}, err
	}
	row := AdvRow{Family: family, Restart: restart}
	ratio, hm, rm, err := advEval(ctx, sys, cur, climbSeed)
	if err != nil {
		return AdvRow{}, err
	}
	row.StartRatio, row.BestRatio = ratio, ratio
	row.HeftMakespan, row.RefinedMakespan = hm, rm
	row.Validated++

	for step := 0; step < cfg.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return AdvRow{}, fmt.Errorf("experiments: adversarial climb cancelled: %w", err)
		}
		cand := mutate(cur, switches, rng)
		ratio, hm, rm, err = advEval(ctx, sys, cand, climbSeed)
		if err != nil {
			return AdvRow{}, err
		}
		row.Validated++
		if ratio > row.BestRatio+1e-12 {
			cur = cand
			row.BestRatio = ratio
			row.HeftMakespan, row.RefinedMakespan = hm, rm
			row.Accepted++
		}
	}
	row.Tasks = cur.dag.Tasks()
	row.Edges = len(cur.dag.Edges)
	obs.Event("experiments.adversarial_climb",
		obs.F("family", family),
		obs.F("restart", restart),
		obs.F("start_ratio", row.StartRatio),
		obs.F("best_ratio", row.BestRatio),
		obs.F("accepted", row.Accepted),
		obs.F("validated", row.Validated))
	return row, nil
}

// Adversarial runs the full adversarial search: one hill-climb per
// (family, restart), fanned out via par.ForEach; each climb writes its
// own row, so the result does not depend on the worker count. Each climb
// is one durable runstate unit, so interrupted sweeps resume without
// repeating completed climbs. A nil ctx means context.Background.
func Adversarial(ctx context.Context, cfg AdvConfig) (*AdvResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = par.RootContext()
	}
	net, err := Network16()
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(net, core.Options{})
	if err != nil {
		return nil, err
	}
	nClimbs := len(cfg.Families) * cfg.Restarts
	sp := obs.StartSpan("experiments.adversarial",
		obs.F("families", len(cfg.Families)),
		obs.F("restarts", cfg.Restarts),
		obs.F("steps", cfg.Steps))

	cfgHash := runstate.KeyHash(cfg)
	rows := make([]AdvRow, nClimbs)
	runOne := func(ctx context.Context, i int) error {
		family := cfg.Families[i/cfg.Restarts]
		restart := i % cfg.Restarts
		key := ""
		if runstate.Enabled() {
			key = fmt.Sprintf("adversarial/%s/r%d/%s", family, restart, cfgHash)
			var row AdvRow
			if runstate.Lookup(key, &row) {
				rows[i] = row
				return nil
			}
		}
		row, err := advClimb(ctx, cfg, sys, family, restart)
		if err != nil {
			return err
		}
		if key != "" {
			runstate.RecordCtx(ctx, key, row)
		}
		rows[i] = row
		return nil
	}
	if err := par.ForEach(ctx, nClimbs, runOne); err != nil {
		return nil, err
	}

	res := &AdvResult{Rows: rows}
	for _, row := range rows {
		res.Validated += row.Validated
		if row.BestRatio > res.BestRatio {
			res.BestRatio = row.BestRatio
			res.BestFamily = row.Family
		}
	}
	sp.End(obs.F("best_ratio", res.BestRatio), obs.F("best_family", res.BestFamily))
	return res, nil
}

// Table renders the adversarial study.
func (r *AdvResult) Table() string {
	var b strings.Builder
	t := stats.NewTable("family", "restart", "tasks", "edges", "start_ratio", "best_ratio",
		"heft_mk", "refined_mk", "accepted")
	for _, row := range r.Rows {
		t.AddRow(row.Family,
			fmt.Sprintf("%d", row.Restart),
			fmt.Sprintf("%d", row.Tasks),
			fmt.Sprintf("%d", row.Edges),
			fmt.Sprintf("%.4f", row.StartRatio),
			fmt.Sprintf("%.4f", row.BestRatio),
			fmt.Sprintf("%.2f", row.HeftMakespan),
			fmt.Sprintf("%.2f", row.RefinedMakespan),
			fmt.Sprintf("%d", row.Accepted))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nbest adversarial gap %.2fx in family %s (target >= %.2fx: %v)\nschedules validated: %d\n",
		r.BestRatio, r.BestFamily, AdvGapTarget, r.BestRatio >= AdvGapTarget, r.Validated)
	return b.String()
}
