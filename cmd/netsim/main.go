// Command netsim simulates one mapping on one network across a load sweep
// and prints the latency/traffic rows of a Figure 3/5-style curve.
//
// Usage:
//
//	netsim -switches 16 -clusters 4                       scheduled (OP) mapping
//	netsim -switches 16 -clusters 4 -mapping random       a random mapping
//	netsim -points 9 -maxrate 0.45 -cycles 10000          the paper's ladder
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"commsched/internal/core"
	"commsched/internal/experiments"
	"commsched/internal/mapping"
	"commsched/internal/plot"
	"commsched/internal/runctl"
	"commsched/internal/simnet"
	"commsched/internal/stats"
	"commsched/internal/telemetry"
	"commsched/internal/topology"
)

func main() {
	var (
		switches = flag.Int("switches", 16, "switch count")
		degree   = flag.Int("degree", 3, "inter-switch degree")
		topoSeed = flag.Int64("toposeed", 2000, "topology seed")
		useRings = flag.Bool("rings", false, "use the 4x6 rings network instead of a random irregular one")
		clusters = flag.Int("clusters", 4, "number of logical clusters")
		mapKind  = flag.String("mapping", "scheduled", "mapping: scheduled or random")
		mapSeed  = flag.Int64("mapseed", 100, "random mapping seed")
		points   = flag.Int("points", 9, "number of load points (S1..Sn)")
		maxRate  = flag.Float64("maxrate", 0.45, "injection rate at the last point (flits/cycle/host)")
		warmup   = flag.Int("warmup", 2000, "warmup cycles")
		cycles   = flag.Int("cycles", 10000, "measurement cycles")
		msgFlits = flag.Int("msgflits", 16, "message length in flits")
		vcs      = flag.Int("vcs", 2, "virtual channels per link")
		simSeed  = flag.Int64("simseed", 7, "simulation seed")
		drawPlot = flag.Bool("plot", false, "draw an ASCII latency-vs-traffic chart")

		manifest = flag.String("manifest", "", "write a run manifest (seeds, topology hash, timings) to this file")
	)
	tel := telemetry.Flags()
	durable := runctl.Flags(true)
	flag.Parse()
	svc, err := telemetry.Start(*tel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
	// Ctrl-C / SIGTERM cancels the sweep between units so the deferred
	// finish/Close paths still flush checkpoints and telemetry sinks.
	ctx, stop := runctl.Signals(context.Background(), os.Stderr)
	runErr := run(ctx, *switches, *degree, *topoSeed, *useRings, *clusters, *mapKind, *mapSeed,
		*points, *maxRate, *warmup, *cycles, *msgFlits, *vcs, *simSeed, *drawPlot, *manifest, *durable)
	stop()
	if err := svc.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "netsim:", runErr)
		os.Exit(1)
	}
}

func run(ctx context.Context, switches, degree int, topoSeed int64, useRings bool, clusters int, mapKind string, mapSeed int64,
	points int, maxRate float64, warmup, cycles, msgFlits, vcs int, simSeed int64, drawPlot bool,
	manifestPath string, durable runctl.Config) (retErr error) {

	man := experiments.NewManifest("netsim", experiments.Scale{
		WarmupCycles: warmup, MeasureCycles: cycles, SweepPoints: points, MaxRate: maxRate,
	})
	man.Seeds = map[string]int64{"topology": topoSeed, "mapping": mapSeed, "sim": simSeed}

	var (
		net *topology.Network
		err error
	)
	if useRings {
		net, err = topology.InterconnectedRings(4, 6, 1, topology.Config{})
	} else {
		net, err = topology.RandomIrregular(switches, degree, rand.New(rand.NewSource(topoSeed)), topology.Config{})
	}
	if err != nil {
		return err
	}
	if err := man.AddTopology(net.Name(), net); err != nil {
		return err
	}
	// Publish the manifest immediately so /runs identifies the run while
	// it is still executing; the final Emit refreshes the duration.
	man.Emit()

	id, err := man.RunstateIdentity()
	if err != nil {
		return err
	}
	finish, err := runctl.Activate(durable, id, os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); ferr != nil && retErr == nil {
			retErr = ferr
		}
	}()

	sys, err := core.NewSystem(net, core.Options{})
	if err != nil {
		return err
	}

	var p *mapping.Partition
	label := "OP"
	switch mapKind {
	case "scheduled":
		sched, err := sys.Schedule(ctx, core.ScheduleOptions{Clusters: clusters, Seed: 42})
		if err != nil {
			return err
		}
		p = sched.Partition
	case "random":
		label = "R"
		p, err = sys.RandomMapping(clusters, mapSeed)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mapping kind %q", mapKind)
	}
	q, err := sys.Evaluate(p)
	if err != nil {
		return err
	}
	fmt.Printf("network %s, mapping %s: %s\nCc = %.4f (F_G %.4f, D_G %.4f)\n\n",
		net.Name(), label, p, q.Cc, q.FG, q.DG)

	cfg := simnet.Config{
		VirtualChannels: vcs, MessageFlits: msgFlits,
		WarmupCycles: warmup, MeasureCycles: cycles, Seed: simSeed,
	}
	sweep, err := sys.SimulateSweep(ctx, p, cfg, simnet.LinearRates(points, maxRate))
	if err != nil {
		return err
	}
	t := stats.NewTable("point", "rate", "offered", "accepted", "latency", "latency_q", "saturated")
	for _, pt := range sweep {
		t.AddRow(fmt.Sprintf("S%d", pt.Index),
			fmt.Sprintf("%.4f", pt.Rate),
			fmt.Sprintf("%.4f", pt.Metrics.OfferedTraffic),
			fmt.Sprintf("%.4f", pt.Metrics.AcceptedTraffic),
			fmt.Sprintf("%.1f", pt.Metrics.AvgLatency),
			fmt.Sprintf("%.1f", pt.Metrics.AvgTotalLatency),
			fmt.Sprintf("%v", pt.Metrics.Saturated()))
	}
	fmt.Print(t.String())
	fmt.Printf("\nthroughput (max accepted traffic): %.4f flits/switch/cycle\n", simnet.Throughput(sweep))
	if drawPlot {
		var xs, ys []float64
		for _, pt := range sweep {
			xs = append(xs, pt.Metrics.AcceptedTraffic)
			ys = append(ys, pt.Metrics.AvgLatency)
		}
		chart, err := plot.New("latency vs accepted traffic", 60, 16).
			Axes("accepted (flits/switch/cycle)", "latency (cycles)").
			Add(plot.Series{Label: label, X: xs, Y: ys}).
			Render()
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(chart)
	}
	man.Finish()
	man.Emit()
	if manifestPath != "" {
		return man.Write(manifestPath)
	}
	return nil
}
