package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strconv"
	"time"

	"commsched/internal/core"
	"commsched/internal/experiments"
	"commsched/internal/mapping"
	"commsched/internal/par"
	"commsched/internal/simnet"
	"commsched/internal/topology"
)

// figure is one of the paper's simulated figures.
type figure struct {
	name    string
	network func() (*topology.Network, error)
}

var figures = []figure{
	{"fig3", experiments.Network16},
	{"fig5", experiments.Network24Rings},
}

// figPass is the output of one Figure 3 + Figure 5 pass.
type figPass struct {
	csv          map[string][]byte
	opCc         map[string]float64
	evaluations  int
	cycles       int64 // simulated network cycles, summed over runs
	switchCycles int64 // cycles × switches, summed over runs
	flits        int64 // delivered flits, summed over runs
}

// figurePass reproduces Figures 3 and 5 through the core façade, exactly
// as experiments.Fig3/Fig5 do (same seeds, same mappings, same simulator
// configuration), with a span around every call into core.
func figurePass(rec *recorder, req string, sc experiments.Scale) (*figPass, error) {
	out := &figPass{csv: map[string][]byte{}, opCc: map[string]float64{}}
	root := rec.begin("figure.pass", req, 0)
	defer rec.end(root)
	for _, fig := range figures {
		net, err := fig.network()
		if err != nil {
			return nil, err
		}
		sp := rec.begin("core.characterize", req, root)
		sys, err := core.NewSystem(net, core.Options{})
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.begin("core.schedule", req, root)
		sched, err := sys.Schedule(nil, core.ScheduleOptions{Clusters: 4, Seed: experiments.ScheduleSeed})
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		all := []experiments.MappingPoint{{Label: "OP", Partition: sched.Partition, Cc: sched.Quality.Cc}}
		sp = rec.begin("core.evaluate", req, root)
		for i := 0; i < sc.RandomMappings; i++ {
			p, err := sys.RandomMapping(4, experiments.RandomMappingSeedBase+int64(i))
			if err != nil {
				rec.end(sp)
				return nil, err
			}
			q, err := sys.Evaluate(p)
			if err != nil {
				rec.end(sp)
				return nil, err
			}
			all = append(all, experiments.MappingPoint{Label: fmt.Sprintf("R%d", i+1), Partition: p, Cc: q.Cc})
		}
		rec.end(sp)
		parts := make([]*mapping.Partition, len(all))
		for i, m := range all {
			parts[i] = m.Partition
		}
		cfg := simnet.Config{WarmupCycles: sc.WarmupCycles, MeasureCycles: sc.MeasureCycles, Seed: experiments.SimSeed}
		sp = rec.begin("core.simulate_sweep", req, root)
		sweeps, err := sys.SimulateSweepMany(nil, parts, cfg, simnet.LinearRates(sc.SweepPoints, sc.MaxRate))
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		res := &experiments.SimResult{Network: net.Name()}
		for i, m := range all {
			s := experiments.SimSeries{Mapping: m, Points: sweeps[i], Throughput: simnet.Throughput(sweeps[i])}
			if i == 0 {
				res.OP = s
			} else {
				res.Randoms = append(res.Randoms, s)
			}
			for _, p := range sweeps[i] {
				c := int64(sc.WarmupCycles + p.Metrics.MeasuredCycles)
				out.cycles += c
				out.switchCycles += c * int64(net.Switches())
				out.flits += p.Metrics.DeliveredFlits
			}
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			return nil, err
		}
		out.csv[fig.name] = buf.Bytes()
		out.opCc[fig.name] = sched.Quality.Cc
		out.evaluations += sched.Search.Evaluations
	}
	return out, nil
}

func sha(data []byte) string { return fmt.Sprintf("%x", sha256.Sum256(data)) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// pinFigures checks a pass against the reference values under prefix.
func (b *bench) pinFigures(prefix string, p *figPass) {
	for _, fig := range figures {
		b.pin(prefix+fig.name+".csv.sha256", sha(p.csv[fig.name]))
		b.pinFloat(prefix+fig.name+".op_cc", p.opCc[fig.name])
	}
	b.pin(prefix+"search.evaluations", strconv.Itoa(p.evaluations))
	b.pin(prefix+"simnet.cycles", strconv.FormatInt(p.cycles, 10))
	b.pin(prefix+"simnet.delivered_flits", strconv.FormatInt(p.flits, 10))
}

// runFigureSweep is the figure-sweep workload: the paper's own evaluation
// (Figures 3 and 5 at full scale) in one process, pass after pass.
func runFigureSweep(b *bench) (*outcome, error) {
	if err := b.params(&struct{}{}); err != nil {
		return nil, err
	}
	out := &outcome{layers: map[string]float64{}}
	// Set-up warms the process (heap growth, page faults, code paths) with
	// a quick-scale pass whose outputs are pinned too.
	quick := experiments.QuickScale()
	setups, err := timeSetups(func(bool) error {
		p, err := figurePass(nil, "", quick)
		if err != nil {
			return err
		}
		b.pinFigures("quick.", p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.setups = setups

	full := experiments.FullScale()
	retried0, salvaged0 := par.Retried(), par.Salvaged()
	var (
		passes        []*figPass
		traced, plain []time.Duration
	)
	durs, err := b.measure(func(i int) error {
		// A traced run alternates untraced and traced passes; the
		// difference of their medians is the tracing overhead.
		rec := b.rec
		if i%2 == 0 {
			rec = nil
		}
		t0, cpu0 := time.Now(), cpuTime()
		p, err := figurePass(rec, fmt.Sprintf("pass%d", i), full)
		out.cpu += cpuTime() - cpu0
		out.attempted++
		if err != nil {
			out.failed++
			return err
		}
		if rec != nil {
			traced = append(traced, time.Since(t0))
		} else {
			plain = append(plain, time.Since(t0))
		}
		b.pinFigures("", p)
		passes = append(passes, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total time.Duration
	for _, d := range durs {
		out.opsMs = append(out.opsMs, ms(d))
		total += d
	}
	p := passes[0]
	out.work = float64(p.switchCycles) * float64(len(passes))
	out.reportf("wall_s: %.3f s per Figure 3+5 pass (median of %d)", median(out.opsMs)/1000, len(durs))
	out.reportf("sim_cycles_per_s: %.0f simulated switch-cycles per wall second, %.0f per CPU-second", out.work/total.Seconds(), out.work/out.cpu.Seconds())
	out.reportf("simnet.cycles %d, simnet.delivered_flits %d, search.evaluations %d per pass", p.cycles, p.flits, p.evaluations)

	if b.tracing() {
		prof := profile(b.rec.snapshot())
		nTraced := float64(len(traced))
		simS := prof.Self["core.simulate_sweep"].Seconds() / nTraced
		out.layers["core.simulate_sweep_s"] = simS
		out.layers["simnet.host_ns_per_cycle"] = simS * 1e9 / float64(p.cycles)
		out.layers["simnet.cycles"] = float64(p.cycles)
		out.layers["simnet.delivered_flits"] = float64(p.flits)
		out.layers["par.retried"] = float64(par.Retried() - retried0)
		out.layers["par.salvaged"] = float64(par.Salvaged() - salvaged0)
		out.layers["core.characterize_ms_p50"] = prof.p50("core.characterize")
		out.layers["core.characterize_share"] = prof.share("core.characterize")
		out.layers["core.schedule_ms_p50"] = prof.p50("core.schedule")
		out.layers["core.schedule_share"] = prof.share("core.schedule")
		out.layers["search.evaluations"] = float64(p.evaluations)
		if s := prof.Self["core.schedule"].Seconds(); s > 0 {
			out.layers["search.evals_per_s"] = float64(p.evaluations) * nTraced / s
		}
		out.layers["bench.trace_overhead"] = overhead(traced, plain)
	}
	return out, nil
}

// overhead is the traced operations' median duration over the untraced
// ones', minus one.
func overhead(traced, plain []time.Duration) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	f := func(ds []time.Duration) float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d)
		}
		return median(xs)
	}
	return f(traced)/f(plain) - 1
}
