package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"commsched/internal/core"
	"commsched/internal/fault"
	"commsched/internal/topology"
)

type streamParams struct {
	MinSwitches  int `json:"min_switches"`
	MaxSwitches  int `json:"max_switches"`
	Step         int `json:"step"`
	Clusters     int `json:"clusters"`
	Degree       int `json:"degree"`
	DegradeEvery int `json:"degrade_every"`
}

// sizes lists every network size of one block.
func (p streamParams) sizes() []int {
	var out []int
	for n := p.MinSwitches; n <= p.MaxSwitches; n += p.Step {
		out = append(out, n)
	}
	return out
}

// streamRequest is one generated schedule-stream request.
type streamRequest struct {
	Net     *topology.Network
	Seed    int64 // search seed
	Degrade bool
	Plan    fault.Plan
	Repair  int64 // repair search seed
}

// rngFor derives an independent generator for item i of a seeded stream.
func rngFor(seed int64, stream string, i int) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d", seed, stream, i)))
	var v int64
	for _, c := range h[:8] {
		v = v<<8 | int64(c)
	}
	return rand.New(rand.NewSource(v))
}

// streamBlock generates block k of the request stream: every size of the
// range once, in seeded order, so every block puts the same work mix on
// the system while no two instances are alike.
func streamBlock(p streamParams, seed int64, k int) ([]streamRequest, error) {
	sizes := p.sizes()
	perm := rngFor(seed, "order", k).Perm(len(sizes))
	reqs := make([]streamRequest, len(sizes))
	for pos, j := range perm {
		i := k*len(sizes) + pos
		rng := rngFor(seed, "request", i)
		net, err := topology.RandomIrregular(sizes[j], p.Degree, rng, topology.Config{})
		if err != nil {
			return nil, err
		}
		r := streamRequest{Net: net, Seed: rng.Int63()}
		if p.DegradeEvery > 0 && i%p.DegradeEvery == p.DegradeEvery-1 {
			plan, err := fault.RandomPlan(net, fault.PlanSpec{LinkFailures: 1}, rng)
			if err != nil {
				return nil, err
			}
			r.Degrade, r.Plan, r.Repair = true, plan, rng.Int63()
		}
		reqs[pos] = r
	}
	return reqs, nil
}

// streamResult is what one request produced.
type streamResult struct {
	switches    int
	cc          float64
	evaluations int
	degraded    bool
	recomputed  int
	pairs       int
	repairCc    float64
	moved       int
}

// String is the result's digest form: coefficients to nine significant
// digits, so last-bit rounding differences do not change the digest.
func (r streamResult) String() string {
	return fmt.Sprintf("n=%d cc=%.9g evals=%d degraded=%v recomputed=%d repair_cc=%.9g moved=%d",
		r.switches, r.cc, r.evaluations, r.degraded, r.recomputed, r.repairCc, r.moved)
}

// serveStream runs one request: characterize, schedule, evaluate, and for
// a degrade request fail a link, re-characterize and repair. Every output
// is checked for internal consistency.
func (b *bench) serveStream(rec *recorder, req string, p streamParams, r streamRequest) (streamResult, error) {
	root := rec.begin("stream.request", req, 0)
	defer rec.end(root)
	res := streamResult{switches: r.Net.Switches()}

	sp := rec.begin("core.characterize", req, root)
	sys, err := core.NewSystem(r.Net, core.Options{})
	rec.end(sp)
	if err != nil {
		return res, err
	}
	sp = rec.begin("core.schedule", req, root)
	sched, err := sys.Schedule(nil, core.ScheduleOptions{Clusters: p.Clusters, Seed: r.Seed})
	rec.end(sp)
	if err != nil {
		return res, err
	}
	sp = rec.begin("core.evaluate", req, root)
	q, err := sys.Evaluate(sched.Partition)
	rec.end(sp)
	if err != nil {
		return res, err
	}
	if q != sched.Quality {
		b.fail("%s: Evaluate(schedule) = %+v, Schedule reported %+v", req, q, sched.Quality)
	}
	for c := 0; c < sched.Partition.M(); c++ {
		if sched.Partition.Size(c) != r.Net.Switches()/p.Clusters {
			b.fail("%s: cluster %d has %d switches, want %d", req, c, sched.Partition.Size(c), r.Net.Switches()/p.Clusters)
		}
	}
	if !(q.Cc > 0) || math.IsInf(q.Cc, 0) {
		b.fail("%s: Cc = %v", req, q.Cc)
	}
	res.cc, res.evaluations = q.Cc, sched.Search.Evaluations
	if !r.Degrade {
		return res, nil
	}

	sp = rec.begin("core.degrade", req, root)
	ds, err := sys.Degrade(r.Plan)
	rec.end(sp)
	if err != nil {
		return res, err
	}
	sp = rec.begin("core.repair", req, root)
	rr, err := ds.Repair(nil, sched.Partition, r.Repair)
	rec.end(sp)
	if err != nil {
		return res, err
	}
	if rr.Schedule.Quality.FG > rr.FromQuality.FG+1e-9 {
		b.fail("%s: repair raised F_G from %v to %v", req, rr.FromQuality.FG, rr.Schedule.Quality.FG)
	}
	n := ds.Network().Switches()
	res.degraded = true
	res.recomputed, res.pairs = ds.RecomputedPairs, n*(n-1)/2
	res.repairCc, res.moved = rr.Schedule.Quality.Cc, rr.Moved
	return res, nil
}

// canonicalStream is the fixed request set the set-up runs and pins: it
// does not depend on --seed, so its search results have reference values.
func canonicalStream(p streamParams) ([]streamRequest, error) {
	var reqs []streamRequest
	for i, n := range []int{16, 48, 96, 32} {
		net, err := topology.RandomIrregular(n, p.Degree, rand.New(rand.NewSource(int64(1000+i))), topology.Config{})
		if err != nil {
			return nil, err
		}
		r := streamRequest{Net: net, Seed: int64(42 + i)}
		if i%2 == 1 {
			plan, err := fault.RandomPlan(net, fault.PlanSpec{LinkFailures: 1}, rand.New(rand.NewSource(int64(2000+i))))
			if err != nil {
				return nil, err
			}
			r.Degrade, r.Plan, r.Repair = true, plan, int64(7+i)
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// runScheduleStream is the schedule-stream workload: one caller sending
// request after request, each on a fresh seeded network.
func runScheduleStream(b *bench) (*outcome, error) {
	var p streamParams
	if err := b.params(&p); err != nil {
		return nil, err
	}
	out := &outcome{layers: map[string]float64{}}
	canon, err := canonicalStream(p)
	if err != nil {
		return nil, err
	}
	out.setups, err = timeSetups(func(bool) error {
		h := sha256.New()
		for i, r := range canon {
			res, err := b.serveStream(nil, fmt.Sprintf("canonical%d", i), p, r)
			if err != nil {
				return err
			}
			fmt.Fprintln(h, res)
			b.pinFloat(fmt.Sprintf("canonical%d.cc", i), res.cc)
			b.pin(fmt.Sprintf("canonical%d.search.evaluations", i), strconv.Itoa(res.evaluations))
		}
		b.pin("canonical.digest", fmt.Sprintf("%x", h.Sum(nil)))
		return nil
	})
	if err != nil {
		return nil, err
	}

	var (
		results       []streamResult
		traced, plain []time.Duration
		firstBlock    []streamResult
	)
	blockLen := len(p.sizes())
	_, err = b.measure(func(k int) error {
		reqs, err := streamBlock(p, b.seed, k)
		if err != nil {
			return err
		}
		// A traced run alternates untraced and traced blocks; every block
		// carries the same size mix, so their times compare.
		rec := b.rec
		if k%2 == 0 {
			rec = nil
		}
		t0 := time.Now()
		for pos, r := range reqs {
			i := k*blockLen + pos
			tr, cpu0 := time.Now(), cpuTime()
			res, err := b.serveStream(rec, "r"+strconv.Itoa(i), p, r)
			out.cpu += cpuTime() - cpu0
			out.attempted++
			if err != nil {
				out.failed++
				b.fail("request %d: %v", i, err)
				continue
			}
			out.opsMs = append(out.opsMs, ms(time.Since(tr)))
			results = append(results, res)
			if k == 0 {
				firstBlock = append(firstBlock, res)
			}
		}
		if rec != nil {
			traced = append(traced, time.Since(t0))
		} else {
			plain = append(plain, time.Since(t0))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total float64
	for _, v := range out.opsMs {
		total += v
	}
	out.work = float64(len(out.opsMs))
	t := tailOf(out.opsMs, 0)
	out.reportf("schedules_per_s: %.3f per wall second, %.3f per CPU-second", out.work/(total/1000), out.work/out.cpu.Seconds())
	out.reportf("schedule_p50_ms: %.3f, schedule_p95_ms (tail p%.1f of %d): %.3f", median(out.opsMs), t.Pct, t.N, t.Value)

	var evals, moved int
	for _, r := range firstBlock {
		evals += r.evaluations
		moved += r.moved
	}
	out.reportf("first block: search.evaluations %d, core.repair_moved %d", evals, moved)
	if b.tracing() {
		prof := profile(b.rec.snapshot())
		out.layers["core.characterize_ms_p50"] = prof.p50("core.characterize")
		out.layers["core.characterize_share"] = prof.share("core.characterize")
		out.layers["core.schedule_ms_p50"] = prof.p50("core.schedule")
		out.layers["core.schedule_share"] = prof.share("core.schedule")
		out.layers["search.evaluations"] = float64(evals)
		out.layers["core.degrade_ms_p50"] = prof.p50("core.degrade")
		out.layers["core.repair_ms_p50"] = prof.p50("core.repair")
		out.layers["core.repair_moved"] = float64(moved)
		var tracedEvals, recomputed, pairs int
		for i, r := range results {
			if (i/blockLen)%2 == 1 {
				tracedEvals += r.evaluations
			}
			recomputed += r.recomputed
			pairs += r.pairs
		}
		if s := prof.Self["core.schedule"].Seconds(); s > 0 {
			out.layers["search.evals_per_s"] = float64(tracedEvals) / s
		}
		if pairs > 0 {
			out.layers["distance.recomputed_ratio"] = float64(recomputed) / float64(pairs)
		}
		out.layers["bench.trace_overhead"] = overhead(traced, plain)
	}
	return out, nil
}
