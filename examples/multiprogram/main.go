// Multiprogram: the paper's future-work scenario with its simplifying
// assumptions removed — several processes per processor and logical
// clusters that are not multiples of a switch.
//
// Three applications of 11, 17, and 20 processes run on an 8-switch NOW
// (32 workstations, 2 process slots each). The process-level Tabu search
// places individual processes; co-located processes communicate through
// shared memory, so good placements both *cluster* (same application near
// itself) and *consolidate* (same application on the same host). The
// example compares the scheduled placement against a random one on the
// objective, the fraction of communication that hits the network, and
// simulated throughput.
//
// Run with: go run ./examples/multiprogram
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"commsched/internal/distance"
	"commsched/internal/procsched"
	"commsched/internal/routing"
	"commsched/internal/simnet"
	"commsched/internal/topology"
	"commsched/internal/traffic"
)

func main() {
	net, err := topology.RandomIrregular(8, 3, rand.New(rand.NewSource(77)), topology.Config{})
	if err != nil {
		log.Fatal(err)
	}
	rt, err := routing.NewUpDown(net, -1)
	if err != nil {
		log.Fatal(err)
	}
	tab, err := distance.Compute(net, rt)
	if err != nil {
		log.Fatal(err)
	}

	// Applications of 11, 17, and 20 processes — deliberately not
	// multiples of anything.
	var clusterOf []int
	for c, size := range []int{11, 17, 20} {
		for i := 0; i < size; i++ {
			clusterOf = append(clusterOf, c)
		}
	}
	pr, err := procsched.NewProblem(net, tab, clusterOf, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NOW: %d switches, %d workstations x 2 slots; %d processes in 3 applications (11/17/20)\n\n",
		net.Switches(), net.Hosts(), pr.Processes())

	scheduled, err := procsched.Search(context.Background(), pr, procsched.NewTabu(), rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}
	random := pr.RandomAssignment(rand.New(rand.NewSource(2)))

	report := func(label string, hostOf []int, cost float64) *traffic.ProcessIntra {
		pat, err := traffic.NewProcessIntra(net.Hosts(), hostOf, clusterOf)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s objective %10.2f   remote communication %.0f%%\n",
			label, cost, pat.RemoteFraction()*100)
		return pat
	}
	schedPat := report("scheduled:", scheduled.Best.HostOf, scheduled.BestCost)
	randPat := report("random:", random.HostOf, pr.Cost(random))

	cfg := simnet.Config{WarmupCycles: 1000, MeasureCycles: 5000, Seed: 3}
	rates := simnet.LinearRates(5, 0.4)
	sweep := func(pat traffic.Pattern) float64 {
		points, err := simnet.Sweep(nil, net, rt, pat, cfg, rates)
		if err != nil {
			log.Fatal(err)
		}
		return simnet.Throughput(points)
	}
	ts, tr := sweep(schedPat), sweep(randPat)
	fmt.Printf("\nsimulated throughput: scheduled %.4f vs random %.4f flits/switch/cycle (%.2fx)\n",
		ts, tr, ts/tr)
}
