package simnet

import (
	"context"
	"fmt"
	"sync/atomic"

	"commsched/internal/obs"
	"commsched/internal/par"
	"commsched/internal/routing"
	"commsched/internal/runstate"
	"commsched/internal/topology"
	"commsched/internal/traffic"
)

// SweepPoint is one operating point of a load sweep: the paper's
// simulation points S1…S9 between low load and deep saturation.
type SweepPoint struct {
	// Index is the 1-based point number (S1, S2, …).
	Index int
	// Rate is the per-host injection rate in flits/cycle.
	Rate float64
	// Metrics is the run's measurement.
	Metrics Metrics
	// Incomplete marks a point whose run failed permanently but was
	// salvaged under the par error budget: Metrics is zero and must not
	// be interpreted. Complete runs never set it.
	Incomplete bool
}

// Sweep simulates the network at each injection rate and returns one
// point per rate. Each run is independent and deterministic (the config
// seed is combined with the point index), so the points execute in
// parallel across GOMAXPROCS workers; results are identical to a
// sequential sweep.
//
// Concurrency caveat: traffic.Pattern implementations in this module only
// read immutable state and draw from the per-simulator rng passed to
// Destination, so one pattern value is safely shared across the parallel
// runs.
//
// A nil ctx means Background; a cancellation stops all in-flight runs
// promptly and surfaces the wrapped ctx.Err(). A panicking worker is
// recovered into a returned error instead of crashing the process.
func Sweep(ctx context.Context, net *topology.Network, rt *routing.UpDown, pattern traffic.Pattern, cfg Config, rates []float64) ([]SweepPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("simnet: empty rate list")
	}
	sp, ctx := obs.StartSpanCtx(ctx, "simnet.sweep", obs.F("points", len(rates)), obs.F("max_rate", rates[len(rates)-1]))
	// Checkpointing needs a scope identifying the (system, mapping) this
	// sweep belongs to; without one a point cannot be named durably and
	// the sweep runs un-checkpointed.
	scope := ""
	if runstate.Enabled() {
		scope = runstate.ScopeFrom(ctx)
	}
	points := make([]SweepPoint, len(rates))
	var done atomic.Int64
	unitErrs, err := par.ForEachPartial(ctx, "simnet.sweep", len(rates), func(ctx context.Context, i int) error {
		c := cfg
		c.InjectionRate = rates[i]
		c.Seed = cfg.Seed*1000003 + int64(i)
		key := ""
		if scope != "" {
			// The key embeds the full per-point config (rate, seed, and
			// every simulation knob), so a changed configuration can never
			// resurrect a stale point.
			key = fmt.Sprintf("sweep/%s/p%d/%s", scope, i, runstate.KeyHash(c))
			var m Metrics
			if runstate.Lookup(key, &m) {
				points[i] = SweepPoint{Index: i + 1, Rate: rates[i], Metrics: m}
				if obs.Enabled() {
					obs.Progress("simnet.sweep", done.Add(1), int64(len(rates)))
				}
				return nil
			}
		}
		sim, err := New(net, rt, pattern, c)
		if err != nil {
			return err
		}
		m, err := sim.RunContext(ctx)
		if err != nil {
			return err
		}
		points[i] = SweepPoint{Index: i + 1, Rate: rates[i], Metrics: m}
		if key != "" {
			runstate.RecordCtx(ctx, key, m)
		}
		if obs.Enabled() {
			obs.EventCtx(ctx, "simnet.sweep_point",
				obs.F("point", i+1),
				obs.F("rate", rates[i]),
				obs.F("accepted_traffic", m.AcceptedTraffic),
				obs.F("avg_latency", m.AvgLatency),
				obs.F("saturated", m.Saturated()))
			obs.Progress("simnet.sweep", done.Add(1), int64(len(rates)))
		}
		return nil
	})
	if err != nil {
		sp.End(obs.F("err", true))
		return nil, err
	}
	// Units that failed permanently but stayed within the error budget
	// come back as tagged-incomplete points instead of failing the sweep.
	for _, ue := range unitErrs {
		points[ue.Index] = SweepPoint{Index: ue.Index + 1, Rate: rates[ue.Index], Incomplete: true}
	}
	sp.End(obs.F("throughput", Throughput(points)), obs.F("incomplete", len(unitErrs)))
	return points, nil
}

// LinearRates returns n evenly spaced rates in (0, max] — the paper's
// S1…Sn ladder from low traffic to (past) saturation.
func LinearRates(n int, max float64) []float64 {
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = max * float64(i+1) / float64(n)
	}
	return rates
}

// Throughput returns the maximum accepted traffic over the sweep — the
// paper's throughput definition (maximum amount of information delivered
// per time unit).
func Throughput(points []SweepPoint) float64 {
	max := 0.0
	for _, p := range points {
		if p.Metrics.AcceptedTraffic > max {
			max = p.Metrics.AcceptedTraffic
		}
	}
	return max
}
