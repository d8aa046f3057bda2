package simnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
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

// pinRun is one run of the pinned matrix: its hash label (network name
// first) and its configuration.
type pinRun struct {
	pn    pinNet
	label string
	cfg   Config
}

// pinNets builds the two networks of the pinned matrix: the 16-switch
// irregular network and the 24-switch rings.
func pinNets(t *testing.T) []pinNet {
	t.Helper()
	irr, err := topology.RandomIrregular(16, 3, rand.New(rand.NewSource(2000)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rings, err := topology.InterconnectedRings(4, 6, 1, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return []pinNet{
		newPinNet(t, "irregular16", irr, topology.Link{A: 0, B: 4}, topology.Link{A: 3, B: 11}, topology.Link{A: 6, B: 9}),
		newPinNet(t, "rings24", rings, topology.Link{A: 0, B: 7}, topology.Link{A: 9, B: 10}, topology.Link{A: 1, B: 18}),
	}
}

// pinMatrix lists the runs of the pinned matrix in hash order. For each
// network and load: adaptive/deterministic routing × wormhole/cut-through
// switching × 1, 2 and 4 virtual channels, then bimodal sizes (wormhole
// and cut-through), RateScale, HostCluster, and a permanent, a repaired
// and a stranding (adaptive and deterministic) link failure.
func pinMatrix(nets []pinNet) []pinRun {
	var runs []pinRun
	add := func(pn pinNet, label string, cfg Config) {
		runs = append(runs, pinRun{pn: pn, label: pn.name + "/" + label, cfg: cfg})
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
						add(pn, fmt.Sprintf("rate=%v/det=%v/ct=%v/vcs=%d", rate, det, ct, vcs), cfg)
					}
				}
			}
			lr := fmt.Sprintf("rate=%v/", rate)
			bimodal := base
			bimodal.MessageFlits, bimodal.BimodalFlits, bimodal.BimodalFraction = 8, 32, 0.25
			add(pn, lr+"bimodal", bimodal)
			bimodal.CutThrough, bimodal.BufferFlits = true, 32
			add(pn, lr+"bimodal-ct", bimodal)
			scaled := base
			scaled.RateScale = make([]float64, pn.net.Hosts())
			for h := range scaled.RateScale {
				scaled.RateScale[h] = float64(h%3) * 0.75
			}
			add(pn, lr+"ratescale", scaled)
			labelled := base
			labelled.HostCluster = pn.clusters
			add(pn, lr+"hostcluster", labelled)

			failAt := int64(base.WarmupCycles + 200)
			perm := base
			perm.LinkEvents = []LinkEvent{{A: pn.perm.A, B: pn.perm.B, At: failAt}}
			add(pn, lr+"fail-permanent", perm)
			repaired := base
			repaired.LinkEvents = []LinkEvent{{A: pn.repaired.A, B: pn.repaired.B, At: failAt, RepairAt: failAt + 500}}
			add(pn, lr+"fail-repaired", repaired)
			for _, det := range []bool{false, true} {
				strand := base
				strand.DeterministicRouting = det
				strand.LinkEvents = []LinkEvent{{A: pn.strand.A, B: pn.strand.B, At: failAt}}
				add(pn, fmt.Sprintf("%sfail-strand/det=%v", lr, det), strand)
			}
		}
	}
	return runs
}

// TestSimulatorMetricsPinned pins the simulator's output: a SHA-256 over
// every exported Metrics field (LinkLoads, PerCluster and the latency
// percentiles included) for every run of pinMatrix, plus a Sweep at
// GOMAXPROCS 1 and 2. Arbitration, transfer and buffer rewrites must keep
// it: any change of routing or transfer outcome moves some field of some
// run.
func TestSimulatorMetricsPinned(t *testing.T) {
	const want = "ab6e52db0bf4d8c7369d9b1b36c8c5399591416c486fa3b620ceeb5f5f240dd3"
	nets := pinNets(t)
	h := sha256.New()
	for _, r := range pinMatrix(nets) {
		sim, err := New(r.pn.net, r.pn.rt, r.pn.pattern, r.cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		m := sim.Run()
		writeMetrics(h, r.label, m)
		// The dying link's VCs hold at most one worm each per direction;
		// any loss beyond that is a stranded header.
		vcs := 2 * int64(r.cfg.withDefaults().VirtualChannels)
		if strings.Contains(r.label, "fail-strand") && r.cfg.InjectionRate > 0.1 && m.LostMessages <= vcs {
			t.Errorf("%s: lost %d messages, want stranded worms beyond the %d VCs of the dying link", r.label, m.LostMessages, vcs)
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

// TestFailureRunsDrain runs every link-failure configuration of the pinned
// matrix and then requires the network to empty. A purge that rewrites a
// queue it removes nothing from leaves a source queue waiting behind a worm
// that never completes, and the drain fails.
func TestFailureRunsDrain(t *testing.T) {
	for _, r := range pinMatrix(pinNets(t)) {
		if len(r.cfg.LinkEvents) == 0 {
			continue
		}
		sim, err := New(r.pn.net, r.pn.rt, r.pn.pattern, r.cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		sim.Run()
		if !sim.Drain(400000) {
			t.Errorf("%s: %d flits still in flight after the drain", r.label, sim.inflight())
		}
	}
}

// TestBufferInvariants steps the failure, cut-through and bimodal runs of
// the pinned matrix and checks the counted buffers after every cycle: a
// free VC holds no flits, no VC holds more than its capacity, every routed
// buffer is non-empty and routed for its own message, a source queue holds
// all of its head message's remaining flits, and the source-queue
// occupancy total equals the head remainders plus the pending sizes.
func TestBufferInvariants(t *testing.T) {
	for _, r := range pinMatrix(pinNets(t)) {
		if len(r.cfg.LinkEvents) == 0 && !r.cfg.CutThrough && r.cfg.BimodalFraction == 0 {
			continue
		}
		sim, err := New(r.pn.net, r.pn.rt, r.pn.pattern, r.cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		for c := 0; c < r.cfg.WarmupCycles+r.cfg.MeasureCycles; c++ {
			sim.step()
			if err := sim.checkBuffers(); err != nil {
				t.Fatalf("%s, cycle %d: %v", r.label, sim.cycle, err)
			}
		}
	}
}

// checkBuffers returns the first broken buffer invariant it finds.
func (s *Simulator) checkBuffers() error {
	var queued int64
	for bid := range s.bufs {
		b := &s.bufs[bid]
		switch {
		case b.srcHost < 0 && b.msg == none && b.n != 0:
			return fmt.Errorf("free VC buffer %d holds %d flits", bid, b.n)
		case b.srcHost < 0 && b.n > b.cap:
			return fmt.Errorf("VC buffer %d holds %d flits, capacity %d", bid, b.n, b.cap)
		case b.srcHost >= 0 && b.msg != none && b.n != s.msgs[b.msg].size-b.seq:
			return fmt.Errorf("source queue %d holds %d flits of its head message, %d remain", bid, b.n, s.msgs[b.msg].size-b.seq)
		}
		if b.srcHost >= 0 {
			queued += int64(b.n)
			q := s.pending[b.srcHost]
			for _, p := range q.items[q.next:] {
				queued += int64(p.size)
			}
		}
	}
	if queued != s.srcQueueFlits {
		return fmt.Errorf("source queues hold %d flits, srcQueueFlits says %d", queued, s.srcQueueFlits)
	}
	for sw, routed := range s.routed {
		for _, bid := range routed {
			if b := &s.bufs[bid]; b.n == 0 || b.routedMsg != b.msg {
				return fmt.Errorf("switch %d: routed buffer %d holds %d flits of message %d, routed for %d", sw, bid, b.n, b.msg, b.routedMsg)
			}
		}
	}
	return nil
}
