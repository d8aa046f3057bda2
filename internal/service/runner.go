package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"commsched/internal/core"
	"commsched/internal/mapping"
	"commsched/internal/obs"
	"commsched/internal/par"
	"commsched/internal/runstate"
	"commsched/internal/search"
	"commsched/internal/simnet"
	"commsched/internal/topology"
)

// RunInfo is the runner's execution metadata, surfaced in the job status
// alongside the result.
type RunInfo struct {
	// Salvaged counts sweep points that failed permanently but were
	// kept as Incomplete under the job's error budget.
	Salvaged int
}

// Runner executes one job and returns its canonical result document.
// Implementations must be deterministic in the job spec: two runs of
// equal specs — including a run resumed from a checkpoint after a crash
// — must return byte-identical results.
type Runner interface {
	Run(ctx context.Context, job *Job) (json.RawMessage, RunInfo, error)
}

// CoreRunner runs jobs through the core façade.
type CoreRunner struct {
	// Policy is the per-unit robustness policy (attempt deadline,
	// retries with seeded backoff, error budget for sweep points). It is
	// applied per job via par.Policy.RunUnit — never installed globally.
	Policy par.Policy
	// CkptRoot, when set, gives every job a checkpoint directory
	// CkptRoot/<jobID>: completed sweep points (and the scheduled
	// mapping) are journaled there, so a daemon killed mid-job resumes
	// the job instead of restarting it.
	CkptRoot string
}

// newSystemSafe characterizes a network with a final panic net: the
// façade validates its inputs, but a long-lived daemon survives even a
// façade bug as a failed job, never as a crash.
func newSystemSafe(net *topology.Network) (sys *core.System, err error) {
	defer func() {
		if r := recover(); r != nil {
			sys, err = nil, fmt.Errorf("service: characterization panic: %v", r)
		}
	}()
	return core.NewSystem(net, core.Options{})
}

// evaluateAssign validates and scores one explicit assignment.
func evaluateAssign(sys *core.System, assign []int, m int) (EvaluateResult, error) {
	p, err := mapping.New(assign, m)
	if err != nil {
		return EvaluateResult{}, err
	}
	q, err := sys.Evaluate(p)
	if err != nil {
		return EvaluateResult{}, err
	}
	return EvaluateResult{FG: q.FG, DG: q.DG, Cc: q.Cc}, nil
}

// pickSearcher applies the service's policy on top of search.ByName: an
// empty name means tabu, and exhaustive search is only admitted on toy
// networks; its cost is superexponential and this is an online service.
func pickSearcher(name string, switches int) (search.Searcher, error) {
	switch {
	case name == "":
		name = "tabu"
	case name == "exhaustive" && switches > 10:
		return nil, fmt.Errorf("exhaustive search refused for %d switches (cap 10)", switches)
	}
	return search.ByName(name)
}

// jobIdentity pins a per-job checkpoint directory to the exact job: the
// spec (canonical JSON), the resolved topology hash, and the seed. A
// directory holding anything else — another job's leftovers, a journal
// from an incompatible schema — is refused with ErrIdentityMismatch and
// the job fails loudly instead of silently re-running or mixing results.
func jobIdentity(job *Job) (runstate.Identity, error) {
	spec, err := json.Marshal(job.Spec)
	if err != nil {
		return runstate.Identity{}, fmt.Errorf("service: encoding spec: %w", err)
	}
	return runstate.Identity{
		Command:    "commschedd/job",
		Scale:      spec,
		Seeds:      map[string]int64{"seed": job.Spec.Seed},
		Topologies: map[string]string{"topology": job.TopologySHA},
	}, nil
}

// openJobCheckpoint opens the job's checkpoint store. An identity
// mismatch is a hard error (the job must fail, not re-run against alien
// state); any other open failure degrades to running without
// checkpoints — a broken checkpoint disk must not take the job down.
func (r *CoreRunner) openJobCheckpoint(job *Job) (*runstate.Store, error) {
	if r.CkptRoot == "" {
		return nil, nil
	}
	id, err := jobIdentity(job)
	if err != nil {
		return nil, err
	}
	ck, err := runstate.Open(filepath.Join(r.CkptRoot, job.ID), id)
	if err != nil {
		if errors.Is(err, runstate.ErrIdentityMismatch) {
			return nil, fmt.Errorf("service: job %s checkpoint rejected: %w", job.ID, err)
		}
		obs.Event("service.ckpt_degraded", obs.F("job", job.ID), obs.F("err", err.Error()))
		return nil, nil
	}
	return ck, nil
}

// Run implements Runner.
func (r *CoreRunner) Run(ctx context.Context, job *Job) (json.RawMessage, RunInfo, error) {
	sp, ctx := obs.StartSpanCtx(ctx, "service.run",
		obs.F("job", job.ID), obs.F("kind", string(job.Spec.Kind)))
	res, info, err := r.run(ctx, job)
	sp.End(obs.F("err", err != nil), obs.F("salvaged", info.Salvaged))
	return res, info, err
}

func (r *CoreRunner) run(ctx context.Context, job *Job) (json.RawMessage, RunInfo, error) {
	var info RunInfo
	net, err := job.Spec.ResolveNetwork()
	if err != nil {
		return nil, info, err
	}
	sys, err := newSystemSafe(net)
	if err != nil {
		return nil, info, err
	}

	var result any
	switch job.Spec.Kind {
	case KindEvaluate:
		var out EvaluateResult
		err := r.Policy.RunUnit(ctx, "service.evaluate", 0, func(ctx context.Context) error {
			var uerr error
			out, uerr = evaluateAssign(sys, job.Spec.Assign, job.Spec.M)
			return uerr
		})
		if err != nil {
			return nil, info, err
		}
		result = out

	case KindSchedule:
		sched, err := r.schedule(ctx, sys, job)
		if err != nil {
			return nil, info, err
		}
		result = ScheduleResult{
			Assign:      sched.Partition.Assign(),
			M:           sched.Partition.M(),
			FG:          sched.Quality.FG,
			DG:          sched.Quality.DG,
			Cc:          sched.Quality.Cc,
			Evaluations: sched.Search.Evaluations,
			Iterations:  sched.Search.Iterations,
		}

	case KindSweep:
		out, salvaged, err := r.sweep(ctx, sys, job)
		info.Salvaged = salvaged
		if err != nil {
			return nil, info, err
		}
		result = *out

	default:
		return nil, info, fmt.Errorf("service: unknown job kind %q", job.Spec.Kind)
	}
	// Result documents encode canonically: fixed struct field order, no
	// maps anywhere, so equal specs yield byte-equal results.
	data, err := json.Marshal(result)
	if err != nil {
		return nil, info, fmt.Errorf("service: encoding result: %w", err)
	}
	return data, info, nil
}

// schedule runs the search under the job policy as one unit.
func (r *CoreRunner) schedule(ctx context.Context, sys *core.System, job *Job) (*core.Schedule, error) {
	searcher, err := pickSearcher(job.Spec.Heuristic, sys.Network().Switches())
	if err != nil {
		return nil, err
	}
	var sched *core.Schedule
	err = r.Policy.RunUnit(ctx, "service.schedule", 0, func(ctx context.Context) error {
		var uerr error
		sched, uerr = sys.Schedule(ctx, core.ScheduleOptions{
			Clusters: job.Spec.Clusters,
			Searcher: searcher,
			Seed:     job.Spec.Seed,
		})
		return uerr
	})
	return sched, err
}

// sweepMapping is the durable form of the mapping a sweep simulates,
// checkpointed so a resumed job never repeats the search.
type sweepMapping struct {
	Assign []int   `json:"assign"`
	M      int     `json:"m"`
	Cc     float64 `json:"cc"`
}

// sweep simulates the job's mapping across its rate ladder, one
// checkpointable unit per point: a daemon killed between points resumes
// exactly where it stopped, and the resumed result is byte-identical
// because every point is a pure function of (spec, index).
func (r *CoreRunner) sweep(ctx context.Context, sys *core.System, job *Job) (*SweepResult, int, error) {
	ck, err := r.openJobCheckpoint(job)
	if err != nil {
		return nil, 0, err
	}
	if ck != nil {
		defer func() {
			if cerr := ck.Close(); cerr != nil {
				// The job's numbers are in hand (or it failed for its
				// own reasons); a failing checkpoint disk degrades
				// durability, not the answer.
				obs.Event("service.ckpt_degraded", obs.F("job", job.ID), obs.F("err", cerr.Error()))
			}
		}()
	}

	// Resolve the mapping: explicit assign, checkpointed search result,
	// or a fresh (deterministic) schedule.
	var mp sweepMapping
	switch {
	case len(job.Spec.Assign) > 0:
		mp = sweepMapping{Assign: job.Spec.Assign, M: job.Spec.M}
		if mp.M == 0 {
			mp.M = job.Spec.Clusters
		}
	case ck != nil && ck.Lookup("mapping", &mp) && len(mp.Assign) > 0:
		// replayed from the checkpoint
	default:
		sched, err := r.schedule(ctx, sys, job)
		if err != nil {
			return nil, 0, err
		}
		mp = sweepMapping{Assign: sched.Partition.Assign(), M: sched.Partition.M(), Cc: sched.Quality.Cc}
		if ck != nil {
			ck.Record("mapping", mp)
		}
	}
	p, err := mapping.New(mp.Assign, mp.M)
	if err != nil {
		return nil, 0, err
	}
	if q, err := sys.Evaluate(p); err == nil {
		mp.Cc = q.Cc
	} else {
		return nil, 0, err
	}

	out := &SweepResult{Assign: mp.Assign, M: mp.M, Cc: mp.Cc}
	salvaged := 0
	budget := r.Policy.ErrorBudget
	for i, rate := range job.Spec.Rates {
		if cerr := ctx.Err(); cerr != nil {
			return nil, salvaged, fmt.Errorf("service: sweep stopped at point %d: %w", i+1, cerr)
		}
		key := fmt.Sprintf("point/%03d", i)
		var pt SweepResultPoint
		if ck != nil && ck.Lookup(key, &pt) {
			out.Points = append(out.Points, pt)
			r.emitUnitWide(ctx, job, key, rate, &pt, true)
			continue
		}
		cfg := simnet.Config{
			MessageFlits:  job.Spec.MessageFlits,
			WarmupCycles:  job.Spec.WarmupCycles,
			MeasureCycles: job.Spec.MeasureCycles,
			InjectionRate: rate,
			// One deterministic seed per point, independent of resume
			// history and of every other point.
			Seed: job.Spec.Seed + int64(i+1)*1000003,
		}
		var m simnet.Metrics
		uerr := r.Policy.RunUnit(ctx, "service.sweep", i, func(ctx context.Context) error {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			var serr error
			m, serr = sys.Simulate(p, cfg)
			return serr
		})
		switch {
		case uerr == nil:
			pt = SweepResultPoint{
				Index:           i + 1,
				Rate:            rate,
				OfferedTraffic:  m.OfferedTraffic,
				AcceptedTraffic: m.AcceptedTraffic,
				AvgLatency:      m.AvgLatency,
				AvgTotalLatency: m.AvgTotalLatency,
				Saturated:       m.Saturated(),
			}
		case ctx.Err() != nil:
			// A drain/cancel order, not a point failure: surface it so
			// the service parks the job.
			return nil, salvaged, uerr
		case salvaged < budget:
			salvaged++
			pt = SweepResultPoint{Index: i + 1, Rate: rate, Incomplete: true}
			obs.Event("service.point_salvaged", obs.F("job", job.ID), obs.F("err", uerr.Error()))
		default:
			return nil, salvaged, uerr
		}
		out.Points = append(out.Points, pt)
		if ck != nil {
			ck.Record(key, pt)
		}
		r.emitUnitWide(ctx, job, key, rate, &pt, false)
		obs.Progress("job:"+job.ID, int64(len(out.Points)), int64(len(job.Spec.Rates)))
	}

	// Throughput over complete points only.
	for _, pt := range out.Points {
		if !pt.Incomplete && pt.AcceptedTraffic > out.Throughput {
			out.Throughput = pt.AcceptedTraffic
		}
	}
	return out, salvaged, nil
}

// emitUnitWide emits the canonical per-checkpoint-unit wide event: one
// record per sweep point, whether computed fresh or replayed from the
// journal of a killed predecessor — the replay is part of the job's
// causal story and shares its trace.
func (r *CoreRunner) emitUnitWide(ctx context.Context, job *Job, unit string, rate float64, pt *SweepResultPoint, replayed bool) {
	if !obs.Enabled() {
		return
	}
	obs.Wide(ctx, "unit.wide",
		obs.F("job", job.ID),
		obs.F("unit", unit),
		obs.F("replayed", replayed),
		obs.F("incomplete", pt.Incomplete),
		obs.F("rate", rate),
		obs.F("accepted", pt.AcceptedTraffic),
		obs.F("latency", pt.AvgLatency))
}
