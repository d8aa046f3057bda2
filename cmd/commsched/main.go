// Command commsched runs the communication-aware scheduling technique on
// a network: it characterizes the topology (up*/down* routing + table of
// equivalent distances), searches for the best mapping of logical process
// clusters to switches, and prints the partition with its quality
// coefficients.
//
// Usage:
//
//	commsched -switches 16 -clusters 4 -seed 1          random irregular net
//	commsched -topo rings -rings 4 -ringsize 6          the Figure 4 network
//	commsched -topo file -in net.txt                    a network from disk
//	commsched ... -heuristic sa                         pick the searcher
//	commsched ... -table                                also dump the distance table
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"commsched/internal/core"
	"commsched/internal/experiments"
	"commsched/internal/runctl"
	"commsched/internal/search"
	"commsched/internal/telemetry"
	"commsched/internal/topology"
)

func main() {
	var spec topology.Spec
	flag.StringVar(&spec.Kind, "topo", "irregular", "topology kind: irregular, rings, ring, mesh, torus, hypercube, file")
	flag.IntVar(&spec.Switches, "switches", 16, "switch count (irregular/ring)")
	flag.IntVar(&spec.Degree, "degree", 3, "inter-switch degree (irregular)")
	flag.IntVar(&spec.Rings, "rings", 4, "ring count (rings topology)")
	flag.IntVar(&spec.RingSize, "ringsize", 6, "switches per ring (rings topology)")
	flag.IntVar(&spec.Bridges, "bridges", 1, "links between consecutive rings")
	flag.IntVar(&spec.Rows, "rows", 4, "rows (mesh/torus)")
	flag.IntVar(&spec.Cols, "cols", 4, "columns (mesh/torus)")
	flag.IntVar(&spec.Dim, "dim", 4, "dimension (hypercube)")
	flag.Int64Var(&spec.Seed, "toposeed", 1, "topology generation seed")
	var (
		in        = flag.String("in", "", "input topology file (file topology)")
		clusters  = flag.Int("clusters", 4, "number of logical clusters")
		weights   = flag.String("weights", "", "optional per-cluster traffic weights, e.g. \"50,1,1,1\" (weighted scheduling)")
		seed      = flag.Int64("seed", 42, "search seed")
		heuristic = flag.String("heuristic", "tabu", "searcher: tabu, greedy, sa, ga, gsa, random, exhaustive")
		metric    = flag.String("metric", "resistance", "distance model: resistance or hops")
		randoms   = flag.Int("randoms", 3, "random baseline mappings to report")
		dumpTable = flag.Bool("table", false, "print the table of equivalent distances")
	)
	tel := telemetry.Flags()
	durable := runctl.Flags(false)
	flag.Parse()

	svc, err := telemetry.Start(*tel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "commsched:", err)
		os.Exit(1)
	}
	// Ctrl-C / SIGTERM cancels the search between units so the deferred
	// finish/Close paths still flush checkpoints and telemetry sinks.
	ctx, stop := runctl.Signals(context.Background(), os.Stderr)
	runErr := run(ctx, spec, *in, *clusters, *weights, *seed, *heuristic, *metric, *randoms, *dumpTable, *durable)
	stop()
	if err := svc.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "commsched:", runErr)
		os.Exit(1)
	}
}

func run(ctx context.Context, spec topology.Spec, in string, clusters int, weights string, seed int64,
	heuristic, metric string, randoms int, dumpTable bool, durable runctl.Config) (retErr error) {

	net, err := buildTopology(spec, in)
	if err != nil {
		return err
	}
	man := experiments.NewManifest("commsched", experiments.Scale{})
	man.Seeds = map[string]int64{"topology": spec.Seed, "search": seed}
	if err := man.AddTopology(net.Name(), net); err != nil {
		return err
	}
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
	opts := core.Options{}
	switch metric {
	case "resistance":
		opts.Metric = core.MetricResistance
	case "hops":
		opts.Metric = core.MetricHops
	default:
		return fmt.Errorf("unknown metric %q", metric)
	}
	sys, err := core.NewSystem(net, opts)
	if err != nil {
		return err
	}
	fmt.Printf("network %s: %d switches, %d hosts, %d links, up*/down* root %d\n",
		net.Name(), net.Switches(), net.Hosts(), net.NumLinks(), sys.Routing().Root())
	if dumpTable {
		fmt.Println("\ntable of equivalent distances:")
		fmt.Print(sys.DistanceTable().String())
	}

	searcher, err := search.ByName(heuristic)
	if err != nil {
		return err
	}
	var sched *core.Schedule
	label := searcher.Name()
	if weights != "" {
		ws, err := parseWeights(weights)
		if err != nil {
			return err
		}
		if clusters <= 0 || net.Switches()%len(ws) != 0 {
			return fmt.Errorf("cannot split %d switches into %d weighted clusters", net.Switches(), len(ws))
		}
		sizes := make([]int, len(ws))
		for i := range sizes {
			sizes[i] = net.Switches() / len(ws)
		}
		clusters = len(ws)
		label = "weighted-tabu"
		sched, err = sys.ScheduleWeighted(ctx, sizes, ws, seed)
		if err != nil {
			return err
		}
	} else {
		sched, err = sys.Schedule(ctx, core.ScheduleOptions{Clusters: clusters, Searcher: searcher, Seed: seed})
		if err != nil {
			return err
		}
	}
	fmt.Printf("\nscheduled partition (%s): %s\n", label, sched.Partition)
	fmt.Printf("F_G = %.4f   D_G = %.4f   Cc = %.4f   (evaluations: %d)\n",
		sched.Quality.FG, sched.Quality.DG, sched.Quality.Cc, sched.Search.Evaluations)

	for i := 0; i < randoms; i++ {
		p, err := sys.RandomMapping(clusters, int64(100+i))
		if err != nil {
			return err
		}
		q, err := sys.Evaluate(p)
		if err != nil {
			return err
		}
		fmt.Printf("random R%d: Cc = %.4f   %s\n", i+1, q.Cc, p)
	}
	return nil
}

// buildTopology reads the -in file for the file kind and runs spec's
// generator for every other kind.
func buildTopology(spec topology.Spec, in string) (*topology.Network, error) {
	if spec.Kind != "file" {
		return spec.Build()
	}
	if in == "" {
		return nil, fmt.Errorf("file topology needs -in")
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topology.ParseText(f)
}

// parseWeights parses a comma-separated positive weight list.
func parseWeights(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	ws := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad weight %q (want positive numbers, e.g. 50,1,1,1)", p)
		}
		ws = append(ws, v)
	}
	return ws, nil
}
