// Command topogen generates and analyzes the topologies the paper's
// evaluation uses: it emits the portable text format (consumable by
// `commsched -topo file`) and reports the structural and distance-model
// properties of a network.
//
// Usage:
//
//	topogen -switches 16 -seed 2000 -out net.txt     generate + save
//	topogen -topo rings -analyze                     properties of the Fig. 4 net
//	topogen -in net.txt -analyze                     analyze a saved network
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"commsched/internal/distance"
	"commsched/internal/routing"
	"commsched/internal/topology"
)

func main() {
	var spec topology.Spec
	flag.StringVar(&spec.Kind, "topo", "irregular", "topology kind: irregular, rings, ring, mesh, torus, hypercube")
	flag.IntVar(&spec.Switches, "switches", 16, "switch count (irregular/ring)")
	flag.IntVar(&spec.Degree, "degree", 3, "inter-switch degree (irregular)")
	flag.IntVar(&spec.Rings, "rings", 4, "ring count (rings)")
	flag.IntVar(&spec.RingSize, "ringsize", 6, "switches per ring (rings)")
	flag.IntVar(&spec.Bridges, "bridges", 1, "links between consecutive rings")
	flag.IntVar(&spec.Rows, "rows", 4, "rows (mesh/torus)")
	flag.IntVar(&spec.Cols, "cols", 4, "columns (mesh/torus)")
	flag.IntVar(&spec.Dim, "dim", 4, "dimension (hypercube)")
	flag.Int64Var(&spec.Seed, "seed", 2000, "generation seed")
	var (
		in      = flag.String("in", "", "analyze an existing topology file instead of generating")
		out     = flag.String("out", "", "write the topology to this file ('-' = stdout)")
		analyze = flag.Bool("analyze", false, "print structural and distance-model properties")
	)
	flag.Parse()
	if err := run(spec, *in, *out, *analyze); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

// run builds the network (from the -in file when one is given, from
// spec's generator otherwise), then writes and reports it.
func run(spec topology.Spec, in, out string, analyze bool) error {
	net, err := buildTopology(spec, in)
	if err != nil {
		return err
	}

	switch out {
	case "":
	case "-":
		if err := net.WriteText(os.Stdout); err != nil {
			return err
		}
	default:
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := net.WriteText(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d switches, %d links)\n", out, net.Switches(), net.NumLinks())
	}

	if analyze {
		return report(net)
	}
	if out == "" {
		// Neither saved nor analyzed: at least summarize.
		fmt.Printf("%s: %d switches, %d hosts, %d links, diameter %d\n",
			net.Name(), net.Switches(), net.Hosts(), net.NumLinks(), net.Diameter())
	}
	return nil
}

func buildTopology(spec topology.Spec, in string) (*topology.Network, error) {
	if in == "" {
		return spec.Build()
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topology.ParseText(f)
}

func report(net *topology.Network) error {
	fmt.Printf("network %s\n", net.Name())
	fmt.Printf("  switches:       %d (%d-port, %d hosts each)\n", net.Switches(), net.Ports(), net.HostsPerSwitch())
	fmt.Printf("  hosts:          %d\n", net.Hosts())
	fmt.Printf("  links:          %d\n", net.NumLinks())
	fmt.Printf("  connected:      %v\n", net.Connected())
	fmt.Printf("  diameter:       %d hops\n", net.Diameter())
	fmt.Printf("  average degree: %.2f\n", net.AverageDegree())
	fmt.Printf("  bisection width (estimate): %d links\n",
		net.EstimateBisectionWidth(rand.New(rand.NewSource(1)), 5))
	hist := net.DegreeHistogram()
	degrees := make([]int, 0, len(hist))
	for d := range hist {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	fmt.Printf("  degree histogram:")
	for _, d := range degrees {
		fmt.Printf(" %d×deg%d", hist[d], d)
	}
	fmt.Println()

	ud, err := routing.NewUpDown(net, -1)
	if err != nil {
		return err
	}
	fmt.Printf("  up*/down* root: switch %d\n", ud.Root())
	tab, err := distance.Compute(net, ud)
	if err != nil {
		return err
	}
	sum, pairs, max := 0.0, 0, 0.0
	for i := 0; i < net.Switches(); i++ {
		for j := i + 1; j < net.Switches(); j++ {
			d := tab.At(i, j)
			sum += d
			pairs++
			if d > max {
				max = d
			}
		}
	}
	fmt.Printf("  equivalent distances: mean %.4f, max %.4f, quadratic mean %.4f\n",
		sum/float64(pairs), max, tab.QuadraticMean())
	fmt.Printf("  triangle violations:  %d ordered triples (the table is not a metric)\n",
		tab.TriangleViolations(1e-9))
	return nil
}
