// Command procsched runs the generalized (future-work) scheduler:
// process-level placement on multiprogrammed hosts, with arbitrary
// cluster sizes.
//
// Usage:
//
//	procsched -switches 8 -clusters 11,17,20 -slots 2
//	procsched -switches 16 -clusters 16,16,16,16 -slots 1 -simulate
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"commsched/internal/distance"
	"commsched/internal/experiments"
	"commsched/internal/procsched"
	"commsched/internal/routing"
	"commsched/internal/runctl"
	"commsched/internal/runstate"
	"commsched/internal/simnet"
	"commsched/internal/telemetry"
	"commsched/internal/topology"
	"commsched/internal/traffic"
)

func main() {
	var (
		switches = flag.Int("switches", 8, "switch count")
		degree   = flag.Int("degree", 3, "inter-switch degree")
		topoSeed = flag.Int64("toposeed", 77, "topology seed")
		clusters = flag.String("clusters", "11,17,20", "comma-separated process counts per application")
		slots    = flag.Int("slots", 2, "process slots per workstation")
		seed     = flag.Int64("seed", 1, "search seed")
		simulate = flag.Bool("simulate", false, "also simulate scheduled vs random placement")
	)
	tel := telemetry.Flags()
	durable := runctl.Flags(false)
	flag.Parse()
	svc, err := telemetry.Start(*tel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "procsched:", err)
		os.Exit(1)
	}
	// Ctrl-C / SIGTERM cancels the run between units so the deferred
	// finish/Close paths still flush checkpoints and telemetry sinks.
	ctx, stop := runctl.Signals(context.Background(), os.Stderr)
	runErr := run(ctx, *switches, *degree, *topoSeed, *clusters, *slots, *seed, *simulate, *durable)
	stop()
	if err := svc.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "procsched:", runErr)
		os.Exit(1)
	}
}

func run(ctx context.Context, switches, degree int, topoSeed int64, clusters string, slots int, seed int64, simulate bool,
	durable runctl.Config) (retErr error) {
	sizes, err := parseSizes(clusters)
	if err != nil {
		return err
	}
	net, err := topology.RandomIrregular(switches, degree, rand.New(rand.NewSource(topoSeed)), topology.Config{})
	if err != nil {
		return err
	}
	man := experiments.NewManifest("procsched", experiments.Scale{})
	man.Seeds = map[string]int64{"topology": topoSeed, "search": seed}
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
	rt, err := routing.NewUpDown(net, -1)
	if err != nil {
		return err
	}
	tab, err := distance.Compute(net, rt)
	if err != nil {
		return err
	}
	var clusterOf []int
	for c, size := range sizes {
		for i := 0; i < size; i++ {
			clusterOf = append(clusterOf, c)
		}
	}
	pr, err := procsched.NewProblem(net, tab, clusterOf, slots)
	if err != nil {
		return err
	}
	fmt.Printf("network %s: %d hosts × %d slots; %d processes in %d applications %v\n",
		net.Name(), net.Hosts(), slots, pr.Processes(), pr.Clusters(), sizes)

	res, err := tabuUnit(ctx, pr, sizes, slots, seed)
	if err != nil {
		return err
	}
	random := pr.RandomAssignment(rand.New(rand.NewSource(seed + 1)))
	fmt.Printf("scheduled objective: %.2f   random: %.2f (%.1fx better)\n",
		res.BestCost, pr.Cost(random), pr.Cost(random)/res.BestCost)

	// Per-application switch footprint of the scheduled placement.
	for c := 0; c < pr.Clusters(); c++ {
		used := map[int]bool{}
		for p, cl := range pr.ClusterOf {
			if cl == c {
				used[net.HostSwitch(res.Best.HostOf[p])] = true
			}
		}
		fmt.Printf("  application %d (%d processes) occupies %d switches\n", c, sizes[c], len(used))
	}

	if !simulate {
		return nil
	}
	cfg := simnet.Config{WarmupCycles: 1500, MeasureCycles: 6000, Seed: 3}
	rates := simnet.LinearRates(5, 0.4)
	tp := func(label string, hostOf []int) (float64, error) {
		pat, err := traffic.NewProcessIntra(net.Hosts(), hostOf, clusterOf)
		if err != nil {
			return 0, err
		}
		// Scope sweep units by placement so scheduled and random curves
		// never share checkpoint entries in a -resume directory.
		ctx := runstate.WithScope(ctx,
			fmt.Sprintf("procsched/%s/map=%s", label, runstate.KeyHash(hostOf)))
		points, err := simnet.Sweep(ctx, net, rt, pat, cfg, rates)
		if err != nil {
			return 0, err
		}
		return simnet.Throughput(points), nil
	}
	ts, err := tp("scheduled", res.Best.HostOf)
	if err != nil {
		return err
	}
	tr, err := tp("random", random.HostOf)
	if err != nil {
		return err
	}
	fmt.Printf("simulated throughput: scheduled %.4f vs random %.4f flits/switch/cycle (%.2fx)\n",
		ts, tr, ts/tr)
	return nil
}

// tabuPayload is the durable form of a completed process-level search:
// everything needed to rebuild the Result without recomputing it.
type tabuPayload struct {
	HostOf      []int   `json:"host_of"`
	BestCost    float64 `json:"best_cost"`
	Evaluations int     `json:"evaluations"`
	Iterations  int     `json:"iterations"`
}

// tabuUnit runs the Tabu search as one checkpoint unit: with a -resume
// store installed, a completed search replays from disk instead of
// recomputing. The store identity already pins the topology, so the key
// only needs the problem shape and seed.
func tabuUnit(ctx context.Context, pr *procsched.Problem, sizes []int, slots int, seed int64) (*procsched.Result, error) {
	key := fmt.Sprintf("proctabu/%s", runstate.KeyHash(struct {
		Sizes []int `json:"sizes"`
		Slots int   `json:"slots"`
		Seed  int64 `json:"seed"`
	}{sizes, slots, seed}))
	var pl tabuPayload
	if runstate.Lookup(key, &pl) {
		if best, err := pr.NewAssignment(pl.HostOf); err == nil {
			return &procsched.Result{
				Best: best, BestCost: pl.BestCost,
				Evaluations: pl.Evaluations, Iterations: pl.Iterations,
			}, nil
		}
	}
	res, err := procsched.Search(ctx, pr, procsched.NewTabu(), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	if runstate.Enabled() {
		runstate.RecordCtx(ctx, key, tabuPayload{
			HostOf: res.Best.HostOf, BestCost: res.BestCost,
			Evaluations: res.Evaluations, Iterations: res.Iterations,
		})
	}
	return res, nil
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad cluster size %q (want positive integers, e.g. 11,17,20)", p)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no cluster sizes given")
	}
	return sizes, nil
}
