package simnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"commsched/internal/mapping"
	"commsched/internal/routing"
	"commsched/internal/topology"
	"commsched/internal/traffic"
)

// pinNet is one network of the pinned matrix with its routing, a random
// 4-cluster intra-cluster pattern and the host labels of that mapping.
// Its three failure links carry traffic under that pattern: perm is one
// of the busiest, repaired is the link most often one of several
// admissible continuations (so its return reopens adaptive choices), and
// strand is the only admissible continuation of many (switch,
// destination) pairs.
type pinNet struct {
	name                   string
	net                    *topology.Network
	rt                     *routing.UpDown
	pattern                traffic.Pattern
	clusters               []int
	perm, repaired, strand topology.Link
}

func newPinNet(t *testing.T, name string, net *topology.Network, perm, repaired, strand topology.Link) pinNet {
	t.Helper()
	rt, err := routing.NewUpDown(net, -1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mapping.Random(net.Switches(), 4, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	pm, err := mapping.NewProcessMap(net, p)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := traffic.NewIntraCluster(pm)
	if err != nil {
		t.Fatal(err)
	}
	pn := pinNet{name: name, net: net, rt: rt, pattern: pat, clusters: make([]int, net.Hosts()),
		perm: perm, repaired: repaired, strand: strand}
	for h := range pn.clusters {
		pn.clusters[h] = pm.HostCluster(h)
	}
	return pn
}

// writeMetrics hashes every exported Metrics field, slices included, by
// name. %v prints a float64 in its shortest round-trip form, so two runs
// hash alike only when every field matches to the bit.
func writeMetrics(h hash.Hash, label string, m Metrics) {
	fmt.Fprintf(h, "%s\n", label)
	v := reflect.ValueOf(m)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() {
			fmt.Fprintf(h, "%s=%+v\n", f.Name, v.Field(i).Interface())
		}
	}
}

// TestSimulatorMetricsPinned pins the simulator's output: a SHA-256 over
// every exported Metrics field (LinkLoads, PerCluster and the latency
// percentiles included) for a seeded matrix of the 16-switch irregular
// and 24-switch rings networks at a light (0.05) and a saturating (0.45)
// load, crossing adaptive/deterministic routing, wormhole/cut-through
// switching and 1, 2 and 4 virtual channels, plus bimodal sizes,
// RateScale, HostCluster, a permanent, a repaired and a stranding link
// failure, and a Sweep at GOMAXPROCS 1 and 2. Arbitration and transfer
// rewrites must keep it: any change of routing or transfer outcome moves
// some field of some run. Three rings24 failure runs at rate 0.45 hit the
// known queue rewrite in loseMessage's purge, so fixing that defect moves
// the hash too.
func TestSimulatorMetricsPinned(t *testing.T) {
	const want = "8d44d5e4ecf48b024769ef690526fd7e45ec5caba10f345a2c37dc7fe9346efa"
	irr, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(2000)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rings, err := topology.InterconnectedRings(4, 6, 1, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nets := []pinNet{
		newPinNet(t, "irregular16", irr, topology.Link{A: 0, B: 4}, topology.Link{A: 3, B: 11}, topology.Link{A: 6, B: 9}),
		newPinNet(t, "rings24", rings, topology.Link{A: 0, B: 7}, topology.Link{A: 9, B: 10}, topology.Link{A: 1, B: 18}),
	}
	h := sha256.New()
	run := func(pn pinNet, label string, cfg Config) Metrics {
		sim, err := New(pn.net, pn.rt, pn.pattern, cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", pn.name, label, err)
		}
		m := sim.Run()
		writeMetrics(h, pn.name+"/"+label, m)
		return m
	}
	for _, pn := range nets {
		for _, rate := range []float64{0.05, 0.45} {
			base := Config{InjectionRate: rate, WarmupCycles: 300, MeasureCycles: 1500, Seed: 11}
			for _, det := range []bool{false, true} {
				for _, ct := range []bool{false, true} {
					for _, vcs := range []int{1, 2, 4} {
						cfg := base
						cfg.DeterministicRouting, cfg.CutThrough, cfg.VirtualChannels = det, ct, vcs
						if ct {
							cfg.BufferFlits = cfg.withDefaults().MessageFlits
						}
						run(pn, fmt.Sprintf("rate=%v/det=%v/ct=%v/vcs=%d", rate, det, ct, vcs), cfg)
					}
				}
			}
			lr := fmt.Sprintf("rate=%v/", rate)
			bimodal := base
			bimodal.MessageFlits, bimodal.BimodalFlits, bimodal.BimodalFraction = 8, 32, 0.25
			run(pn, lr+"bimodal", bimodal)
			bimodal.CutThrough, bimodal.BufferFlits = true, 32
			run(pn, lr+"bimodal-ct", bimodal)
			scaled := base
			scaled.RateScale = make([]float64, pn.net.Hosts())
			for h := range scaled.RateScale {
				scaled.RateScale[h] = float64(h%3) * 0.75
			}
			run(pn, lr+"ratescale", scaled)
			labelled := base
			labelled.HostCluster = pn.clusters
			run(pn, lr+"hostcluster", labelled)

			failAt := int64(base.WarmupCycles + 200)
			perm := base
			perm.LinkEvents = []LinkEvent{{A: pn.perm.A, B: pn.perm.B, At: failAt}}
			run(pn, lr+"fail-permanent", perm)
			repaired := base
			repaired.LinkEvents = []LinkEvent{{A: pn.repaired.A, B: pn.repaired.B, At: failAt, RepairAt: failAt + 500}}
			run(pn, lr+"fail-repaired", repaired)
			for _, det := range []bool{false, true} {
				strand := base
				strand.DeterministicRouting = det
				strand.LinkEvents = []LinkEvent{{A: pn.strand.A, B: pn.strand.B, At: failAt}}
				m := run(pn, fmt.Sprintf("%sfail-strand/det=%v", lr, det), strand)
				// The dying link's VCs hold at most one worm each per
				// direction; any loss beyond that is a stranded header.
				if rate > 0.1 && m.LostMessages <= 2*int64(strand.withDefaults().VirtualChannels) {
					t.Errorf("%s/%sfail-strand/det=%v: lost %d messages, want stranded worms beyond the %d VCs of the dying link",
						pn.name, lr, det, m.LostMessages, 2*strand.withDefaults().VirtualChannels)
				}
			}
		}
	}
	sweep := Config{WarmupCycles: 300, MeasureCycles: 1500, Seed: 5, HostCluster: nets[0].clusters}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		points, err := Sweep(nil, nets[0].net, nets[0].rt, nets[0].pattern, sweep, LinearRates(4, 0.45))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		// Both worker counts hash under one label: they must agree.
		for _, p := range points {
			writeMetrics(h, fmt.Sprintf("sweep/p%d", p.Index), p.Metrics)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("simulator metrics digest %s, want %s", got, want)
	}
}
