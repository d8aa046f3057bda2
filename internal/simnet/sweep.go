package simnet

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// SaturationPoint returns the first sweep point whose run saturated, or
// -1 when none did.
func SaturationPoint(points []SweepPoint) int {
	for i, p := range points {
		if p.Metrics.Saturated() {
			return i
		}
	}
	return -1
}

// ErrAlwaysSaturated reports that every FindSaturation probe down to the
// bisection tolerance saturated: the network cannot sustain even the
// lowest rate probed, so no non-saturated operating point was found.
var ErrAlwaysSaturated = errors.New("simnet: network saturated at every probed rate")

// FindSaturation locates the saturation injection rate by bisection in
// (0, maxRate]: the largest per-host rate at which the network still
// accepts (within the Saturated tolerance) everything offered. It returns
// the bracketing rate and the metrics of the last non-saturated run.
// When every probe down to the tolerance saturates, it returns rate 0,
// the metrics of the lowest-rate (still saturated) probe — so the caller
// can inspect Saturated() and the loss figures — and an error wrapping
// ErrAlwaysSaturated.
// Each probe is one full simulation, so tol trades precision for time; a
// nil ctx means Background and cancellation aborts between (and inside)
// probes.
func FindSaturation(ctx context.Context, net *topology.Network, rt *routing.UpDown, pattern traffic.Pattern, cfg Config, maxRate, tol float64) (float64, Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if maxRate <= 0 || maxRate > 1 {
		return 0, Metrics{}, fmt.Errorf("simnet: maxRate %v outside (0,1]", maxRate)
	}
	if tol <= 0 {
		tol = maxRate / 64
	}
	// Bisection halves (hi-lo) every probe, so the probe budget is known
	// up front — which makes the search a progress-trackable task.
	totalProbes := int64(1 + math.Ceil(math.Log2(maxRate/tol)))
	scope := ""
	if runstate.Enabled() {
		scope = runstate.ScopeFrom(ctx)
	}
	var probes int64
	probe := func(lo, hi, rate float64) (Metrics, error) {
		c := cfg
		c.InjectionRate = rate
		key := ""
		if scope != "" {
			// Bisection is deterministic, so a resumed search probes the
			// exact same rate sequence and replays from the store.
			key = fmt.Sprintf("sat/%s/%s", scope, runstate.KeyHash(c))
			var m Metrics
			if runstate.Lookup(key, &m) {
				return m, nil
			}
		}
		sim, err := New(net, rt, pattern, c)
		if err != nil {
			return Metrics{}, err
		}
		m, err := sim.RunContext(ctx)
		if err == nil && key != "" {
			runstate.RecordCtx(ctx, key, m)
		}
		if err == nil && obs.Enabled() {
			probes++
			obs.Event("simnet.saturation_probe",
				obs.F("rate", rate),
				obs.F("lo", lo),
				obs.F("hi", hi),
				obs.F("accepted_traffic", m.AcceptedTraffic),
				obs.F("saturated", m.Saturated()))
			obs.Progress("simnet.saturation", probes, totalProbes)
		}
		return m, err
	}
	lo, hi := 0.0, maxRate
	var best Metrics
	m, err := probe(lo, hi, maxRate)
	if err != nil {
		return 0, Metrics{}, err
	}
	if !m.Saturated() {
		return maxRate, m, nil // never saturates within the probe range
	}
	lastSaturated, found := m, false
	for hi-lo > tol {
		mid := (lo + hi) / 2
		m, err := probe(lo, hi, mid)
		if err != nil {
			return 0, Metrics{}, err
		}
		if m.Saturated() {
			hi = mid
			lastSaturated = m
		} else {
			lo, best, found = mid, m, true
		}
	}
	if !found {
		// lo never advanced: even the lowest probe saturated. Surface the
		// lowest-rate probe's metrics instead of a zero value.
		return 0, lastSaturated, fmt.Errorf("simnet: no non-saturated rate above tolerance %v: %w", tol, ErrAlwaysSaturated)
	}
	return lo, best, nil
}
