// Package simnet is a cycle-accurate flit-level simulator of wormhole
// switching on switch-based networks with up*/down* routing, following the
// evaluation methodology of Duato ("A new theory of deadlock-free adaptive
// routing in wormhole networks") that the paper's Section 5 uses.
//
// Model
//
//   - Every directed inter-switch link carries at most one flit per cycle
//     and multiplexes a configurable number of virtual channels; each
//     virtual channel has a flit buffer at the receiving switch.
//   - Hosts inject messages through a dedicated injection port (one flit
//     per cycle per host, unbounded source queue) and consume them through
//     a dedicated ejection port (one flit per cycle per host).
//   - A message acquires a virtual channel with its header and holds it
//     until its tail flit leaves that channel's buffer — classic wormhole
//     flow control. Routing is adaptive among the minimal legal up*/down*
//     continuations supplied by the routing tables, which keeps the
//     channel dependency graph acyclic and the network deadlock-free.
//   - Message generation is a Bernoulli process per host at a configured
//     flit injection rate; destinations come from a traffic.Pattern.
//
// Measurements follow the paper: message latency in cycles (from header
// injection into the network until tail delivery, with queueing latency
// from generation reported separately) and traffic in flits per switch per
// cycle.
//
// # Data layout
//
// The core runs on dense integer IDs assigned at New time: every directed
// link, every buffer (virtual-channel buffers and host source queues), and
// every output port lives in a flat arena indexed by int32, and per-link
// state (VC lists, dead flags, flit counters) is a slice lookup instead of
// a map. No buffer stores flits: a VC buffer holds consecutive flits of
// the message that acquired it, and a source queue the rest of its head
// message, so each is a (message, next flit, count) triple. Messages drawn
// behind a head wait as pending records of what generate drew, and take a
// slot of the recycled message arena at the head, so the steady state of a
// run allocates nothing. Admissible-continuation candidate lists are
// precomputed per (switch, destination switch, routing phase). The results
// are bit-identical to the original pointer-and-map implementation: the
// math/rand draw order (one Bernoulli draw per host per cycle, then
// destination and size draws) and every rotating arbitration scan are
// preserved exactly; see DESIGN.md for the draw-order contract.
//
// # Event-driven arbitration
//
// Each cycle, route allocation scans only the switches whose wake flag is
// set, and flit transfer visits only each switch's list of routed buffers:
// non-empty buffers whose head message holds a route.
//
// A scan gives a waiting header a route exactly when some live admissible
// continuation has a free virtual channel; the cycle-rotating offset only
// picks which one. It drops the header exactly when every continuation is
// dead. Both depend only on the header's message (destination and routing
// phase), the owners of the virtual channels on links leaving the switch,
// and the dead flags of those links. A header that a scan left waiting
// therefore waits until one of these changes, and the switch's flag is set
// wherever one can:
//
//   - a virtual channel on a link leaving the switch is released
//     (releaseHead, loseMessage);
//   - a link at the switch fails or is repaired;
//   - a header reaches the head of one of its buffers (a message reaching
//     the head of its source queue in startMessage, or forward of a header
//     flit).
//
// So a scan the flag skips would have routed and dropped nothing. The
// transfer pass still gives each output port to the requesting input with
// the lowest rotating rank; only the order of the moves within a switch
// differs, which changes the order of latency samples (sorted before use),
// integer sums, and which recycled arena slot a new message gets (slots
// are only compared for equality).
package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"commsched/internal/obs"
	"commsched/internal/routing"
	"commsched/internal/topology"
	"commsched/internal/traffic"
)

// LinkEvent schedules a mid-run failure of one inter-switch link: the link
// (both directions) dies at cycle At and, when RepairAt is nonzero, comes
// back at cycle RepairAt. Messages holding a virtual channel of a dying
// link — and messages left with no alive admissible hop — are dropped and
// accounted as lost in the metrics; the routing tables are NOT recomputed
// mid-run, modeling the window between a hardware failure and the
// reconfiguration that core.System.Degrade performs.
type LinkEvent struct {
	// A and B are the link's switch endpoints (order irrelevant).
	A, B int
	// At is the failure cycle (relative to simulation start).
	At int64
	// RepairAt is the repair cycle; 0 means the failure is permanent.
	RepairAt int64
}

// Config holds the microarchitectural and workload parameters of one
// simulation run.
type Config struct {
	// VirtualChannels per directed physical link (default 2).
	VirtualChannels int
	// BufferFlits is the depth of each virtual-channel FIFO (default 4).
	BufferFlits int
	// MessageFlits is the fixed message size in flits (default 16).
	MessageFlits int
	// BimodalFlits, when nonzero, enables a bimodal size mix (Duato's
	// evaluation style): messages are BimodalFlits long with probability
	// BimodalFraction and MessageFlits long otherwise. The injection
	// process is scaled so the offered *flit* rate stays InjectionRate.
	BimodalFlits int
	// BimodalFraction is the probability of the BimodalFlits size.
	BimodalFraction float64
	// InjectionRate is the offered load per host in flits/cycle.
	InjectionRate float64
	// WarmupCycles are simulated but excluded from measurement
	// (default 2000).
	WarmupCycles int
	// MeasureCycles is the measurement window length (default 10000).
	MeasureCycles int
	// Seed drives all stochastic choices of the run.
	Seed int64
	// RateScale optionally scales each host's injection rate (len ==
	// number of hosts); nil means uniform rates — the paper's setting.
	RateScale []float64
	// DeterministicRouting disables adaptivity: the header always takes
	// the first admissible hop and the first virtual channel, blocking
	// until that one channel frees. An ablation knob; the default
	// (false) is adaptive routing over all minimal legal continuations.
	DeterministicRouting bool
	// CutThrough switches the flow control from wormhole to virtual
	// cut-through: a header only acquires a virtual channel whose buffer
	// can hold the entire message, so blocked messages never stall
	// spanning multiple switches. Requires BufferFlits >= the largest
	// message size. An ablation of the switching technique.
	CutThrough bool
	// HostCluster optionally labels each host with its application
	// (logical cluster); when set, Metrics.PerCluster breaks delivery
	// counts and latency down by the sender's application.
	HostCluster []int
	// LinkEvents schedules mid-run link failures and repairs.
	LinkEvents []LinkEvent
}

// withDefaults fills zero fields with the defaults above.
func (c Config) withDefaults() Config {
	if c.VirtualChannels == 0 {
		c.VirtualChannels = 2
	}
	if c.BufferFlits == 0 {
		c.BufferFlits = 4
	}
	if c.MessageFlits == 0 {
		c.MessageFlits = 16
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 2000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 10000
	}
	return c
}

// validate rejects nonsensical parameters.
func (c Config) validate(hosts int) error {
	if c.VirtualChannels < 1 {
		return fmt.Errorf("simnet: need >= 1 virtual channel, got %d", c.VirtualChannels)
	}
	if c.BufferFlits < 1 {
		return fmt.Errorf("simnet: need buffer depth >= 1, got %d", c.BufferFlits)
	}
	if c.MessageFlits < 1 {
		return fmt.Errorf("simnet: need message size >= 1 flit, got %d", c.MessageFlits)
	}
	if c.InjectionRate < 0 || c.InjectionRate > 1 {
		return fmt.Errorf("simnet: injection rate %v outside [0,1] flits/cycle/host", c.InjectionRate)
	}
	if c.WarmupCycles < 0 || c.MeasureCycles <= 0 {
		return fmt.Errorf("simnet: invalid cycle counts warmup=%d measure=%d", c.WarmupCycles, c.MeasureCycles)
	}
	if c.BimodalFlits < 0 {
		return fmt.Errorf("simnet: negative bimodal size %d", c.BimodalFlits)
	}
	if c.BimodalFraction < 0 || c.BimodalFraction > 1 {
		return fmt.Errorf("simnet: bimodal fraction %v outside [0,1]", c.BimodalFraction)
	}
	if c.BimodalFraction > 0 && c.BimodalFlits == 0 {
		return fmt.Errorf("simnet: BimodalFraction set without BimodalFlits")
	}
	if c.CutThrough {
		maxMsg := c.MessageFlits
		if c.BimodalFlits > maxMsg {
			maxMsg = c.BimodalFlits
		}
		if c.BufferFlits < maxMsg {
			return fmt.Errorf("simnet: cut-through needs BufferFlits >= message size (%d < %d)", c.BufferFlits, maxMsg)
		}
	}
	if c.HostCluster != nil {
		if len(c.HostCluster) != hosts {
			return fmt.Errorf("simnet: HostCluster has %d entries, want %d hosts", len(c.HostCluster), hosts)
		}
		for h, cl := range c.HostCluster {
			if cl < 0 {
				return fmt.Errorf("simnet: negative cluster for host %d", h)
			}
		}
	}
	if c.RateScale != nil && len(c.RateScale) != hosts {
		return fmt.Errorf("simnet: RateScale has %d entries, want %d hosts", len(c.RateScale), hosts)
	}
	for i, s := range c.RateScale {
		if s < 0 {
			return fmt.Errorf("simnet: negative rate scale at host %d", i)
		}
	}
	return nil
}

// none is the nil value of every dense ID (message, buffer, link, port).
const none = int32(-1)

// message is one wormhole message at its source-queue head or in flight,
// stored in the simulator's recycled arena and referenced by index.
type message struct {
	src, dst  int32 // hosts
	dstSwitch int32
	size      int32
	// delivered counts flits consumed at the destination.
	delivered int32
	created   int64 // cycle of generation (enters source queue)
	injected  int64 // cycle the header left the source queue, -1 before
	// descending records whether the worm has entered its down phase.
	descending bool
	// lost marks a message dropped by a link failure (guards against
	// double-counting when one worm spans several dying links).
	lost bool
	// bufs lists every buffer the message has occupied or acquired — its
	// residency trail. loseMessage purges exactly these instead of
	// sweeping the whole network; the slice's capacity is recycled with
	// the arena slot.
	bufs []int32
}

// pending is a message generated behind its source queue's head: the
// values generate drew for it, kept until startMessage gives it an arena
// slot.
type pending struct {
	dst, size int32
	created   int64
}

// pendingQueue is a source queue's FIFO of pending messages, items[next:]
// in generation order.
type pendingQueue struct {
	items []pending
	next  int
}

// buffer is a virtual-channel buffer (bounded) or a host source queue
// (unbounded, with pending messages behind its head). Either holds n
// consecutive flits of msg, seq first. All buffers live in one arena and
// are referenced by dense ID.
type buffer struct {
	// msg is the owner of a VC buffer or the head message of a source
	// queue; none when the VC is free or the queue empty.
	msg int32
	seq int32 // position of the next flit to leave (0 = header)
	n   int32 // flits present
	cap int32 // 0 = unbounded (source queues)

	// Where msg is routed: a downstream VC buffer, or the ejection port
	// when sink is true. Reset when its tail leaves.
	route     int32
	sink      bool
	routedMsg int32 // message the route belongs to, none when unrouted

	// Location of this buffer.
	atSwitch int32
	// srcHost identifies the injecting host for source queues, -1 for VC
	// buffers.
	srcHost int32
	// linkID is the directed link this buffer is the receiving VC of,
	// none for source queues.
	linkID int32
	// idx is this buffer's position within inputs[atSwitch] — the
	// rotating-arbitration rank base.
	idx int32
	// routedPos is this buffer's position within routed[atSwitch], -1
	// while the buffer is empty or its message has no route.
	routedPos int32
}

type directedLink struct{ from, to int }

// outPort is an arbitration domain: one directed physical link (one flit
// per cycle across all its VCs) or one host ejection port. winner and
// winnerRank are per-cycle scratch for the transfer pass.
type outPort struct {
	link       int32 // directed link ID, none for ejection ports
	eject      int32 // ejecting host, -1 for links
	winner     int32 // requesting buffer with the best rotating rank
	winnerRank int32
}

// Simulator runs one network+mapping+load configuration.
type Simulator struct {
	net     *topology.Network
	rt      *routing.UpDown
	pattern traffic.Pattern
	cfg     Config
	rng     *rand.Rand

	// bufs is the buffer arena; inputs[s] lists (by ID) all buffers whose
	// flits are switched at s: incoming VC buffers then the source queues
	// of s's hosts, in construction order.
	bufs   []buffer
	inputs [][]int32
	// routed[s] lists the buffers of switch s that are non-empty and whose
	// message holds a route — the only ones the transfer pass can move
	// (unordered; each buffer records its position for O(1) removal).
	routed [][]int32
	// wake[s] is set when something that can unblock a waiting header at
	// s has happened since route allocation last scanned s: a virtual
	// channel of a link leaving s was released, a link at s failed or was
	// repaired, or a header reached the head of one of s's buffers.
	wake []bool
	// srcQueues lists every source-queue buffer in (switch, host) order —
	// the injection scan order, which fixes the rng draw order.
	srcQueues []int32
	pending   []pendingQueue // per host: messages behind its source-queue head
	// srcQueueFlits is the running total source-queue occupancy, so the
	// per-cycle queue sample is O(1).
	srcQueueFlits int64

	// Dense directed-link state, indexed by link ID.
	linkDir   []directedLink
	linkUp    []bool // IsUp(from, to), precomputed
	linkVCs   [][]int32
	deadLink  []bool
	linkFlits []int64 // flits crossing each link during the measurement window

	// ports is the output-port arena; switchPorts[s] lists s's ports in
	// construction order (one per outgoing directed link, then one
	// ejection port per host). portOfLink and portOfHost invert the
	// mapping for the transfer pass.
	ports       []outPort
	switchPorts [][]int32
	portOfLink  []int32
	portOfHost  []int32

	// cand[phase][s*n+t] lists the admissible next-hop link IDs for a
	// message at switch s destined to switch t in the given routing phase
	// (0 = up, 1 = descending), in routing.NextHops order. Precomputed at
	// New time so the allocation hot path never re-derives continuations.
	cand [2][][]int32

	// hostSwitch[h] caches net.HostSwitch(h).
	hostSwitch []int32

	// msgs is the message arena; freeMsgs holds recycled slots.
	msgs     []message
	freeMsgs []int32
	active   int64 // messages generated and not yet delivered or lost

	cycle int64

	// events is the sorted failure/repair timeline consumed by
	// processLinkEvents.
	events   []timedLinkEvent
	eventIdx int

	// reqPorts is per-cycle scratch: the ports that found a requester.
	reqPorts []int32

	metrics   Metrics
	measuring bool

	// queueHist accumulates the total source-queue occupancy per measured
	// cycle. Created only when a sink is installed at New time, so the
	// default path never pays for it; flushed as one "hist" record at the
	// end of RunContext.
	queueHist *obs.Histogram
}

// New builds a simulator. The routing structure must belong to the same
// network.
func New(net *topology.Network, rt *routing.UpDown, pattern traffic.Pattern, cfg Config) (*Simulator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(net.Hosts()); err != nil {
		return nil, err
	}
	n := net.Switches()
	s := &Simulator{
		net:         net,
		rt:          rt,
		pattern:     pattern,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		inputs:      make([][]int32, n),
		routed:      make([][]int32, n),
		wake:        make([]bool, n),
		switchPorts: make([][]int32, n),
	}
	// Directed links get dense IDs in Links() order (A→B then B→A), and
	// their VCs join the receiving switch's input list.
	linkID := make(map[directedLink]int32, 2*net.NumLinks())
	for _, l := range net.Links() {
		for _, dl := range []directedLink{{l.A, l.B}, {l.B, l.A}} {
			id := int32(len(s.linkDir))
			linkID[dl] = id
			s.linkDir = append(s.linkDir, dl)
			s.linkUp = append(s.linkUp, rt.IsUp(dl.from, dl.to))
			vcs := make([]int32, cfg.VirtualChannels)
			for k := range vcs {
				bid := s.addBuffer(buffer{cap: int32(cfg.BufferFlits), atSwitch: int32(dl.to), srcHost: -1, linkID: id})
				vcs[k] = bid
			}
			s.linkVCs = append(s.linkVCs, vcs)
			pid := int32(len(s.ports))
			s.ports = append(s.ports, outPort{link: id, eject: -1, winner: none})
			s.switchPorts[dl.from] = append(s.switchPorts[dl.from], pid)
			s.portOfLink = append(s.portOfLink, pid)
		}
	}
	s.deadLink = make([]bool, len(s.linkDir))
	s.linkFlits = make([]int64, len(s.linkDir))
	// Host source queues and ejection ports.
	s.portOfHost = make([]int32, net.Hosts())
	s.pending = make([]pendingQueue, net.Hosts())
	s.hostSwitch = make([]int32, net.Hosts())
	for h := range s.hostSwitch {
		s.hostSwitch[h] = int32(net.HostSwitch(h))
	}
	for sw := 0; sw < n; sw++ {
		for _, h := range net.SwitchHosts(sw) {
			bid := s.addBuffer(buffer{cap: 0, atSwitch: int32(sw), srcHost: int32(h), linkID: none})
			s.srcQueues = append(s.srcQueues, bid)
			pid := int32(len(s.ports))
			s.ports = append(s.ports, outPort{link: none, eject: int32(h), winner: none})
			s.switchPorts[sw] = append(s.switchPorts[sw], pid)
			s.portOfHost[h] = pid
		}
	}
	s.buildCandidates()
	if err := s.buildEvents(); err != nil {
		return nil, err
	}
	if obs.Enabled() {
		s.queueHist = obs.NewHistogram("simnet.queue_occupancy", obs.PowersOfTwoBounds(14))
	}
	return s, nil
}

// addBuffer appends a buffer to the arena and its switch's input list.
func (s *Simulator) addBuffer(b buffer) int32 {
	bid := int32(len(s.bufs))
	b.msg, b.route, b.routedMsg = none, none, none
	b.routedPos = -1
	b.idx = int32(len(s.inputs[b.atSwitch]))
	s.bufs = append(s.bufs, b)
	s.inputs[b.atSwitch] = append(s.inputs[b.atSwitch], bid)
	return bid
}

// buildCandidates precomputes, for every (switch, destination, phase), the
// admissible next-hop link IDs in routing.NextHops order. One backing
// array per phase keeps the table to two allocations plus headers.
func (s *Simulator) buildCandidates() {
	n := s.net.Switches()
	linkID := make(map[directedLink]int32, len(s.linkDir))
	for id, dl := range s.linkDir {
		linkID[dl] = int32(id)
	}
	for phase := 0; phase < 2; phase++ {
		var backing []int32
		offs := make([]int32, n*n+1)
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				offs[from*n+to] = int32(len(backing))
				if from == to {
					continue
				}
				for _, h := range s.rt.NextHops(from, to, phase == 1) {
					backing = append(backing, linkID[directedLink{from, h.To}])
				}
			}
		}
		offs[n*n] = int32(len(backing))
		tab := make([][]int32, n*n)
		for i := range tab {
			tab[i] = backing[offs[i]:offs[i+1]:offs[i+1]]
		}
		s.cand[phase] = tab
	}
}

// buildEvents validates cfg.LinkEvents and compiles the sorted timeline.
func (s *Simulator) buildEvents() error {
	linkID := make(map[directedLink]int32, len(s.linkDir))
	for id, dl := range s.linkDir {
		linkID[dl] = int32(id)
	}
	for i, ev := range s.cfg.LinkEvents {
		l := topology.NormalizeLink(ev.A, ev.B)
		if l.A < 0 || l.B >= s.net.Switches() || !s.net.HasLink(l.A, l.B) {
			return fmt.Errorf("simnet: link event %d: link %d-%d does not exist in %s", i, ev.A, ev.B, s.net.Name())
		}
		if ev.At < 0 {
			return fmt.Errorf("simnet: link event %d: negative failure cycle %d", i, ev.At)
		}
		if ev.RepairAt != 0 && ev.RepairAt <= ev.At {
			return fmt.Errorf("simnet: link event %d: repair cycle %d not after failure cycle %d", i, ev.RepairAt, ev.At)
		}
		d1, d2 := linkID[directedLink{l.A, l.B}], linkID[directedLink{l.B, l.A}]
		s.events = append(s.events, timedLinkEvent{cycle: ev.At, d1: d1, d2: d2, down: true})
		if ev.RepairAt > 0 {
			s.events = append(s.events, timedLinkEvent{cycle: ev.RepairAt, d1: d1, d2: d2, down: false})
		}
	}
	sort.SliceStable(s.events, func(i, j int) bool {
		if s.events[i].cycle != s.events[j].cycle {
			return s.events[i].cycle < s.events[j].cycle
		}
		return s.events[i].down && !s.events[j].down
	})
	return nil
}

// Run simulates warmup plus measurement and returns the metrics.
func (s *Simulator) Run() Metrics {
	m, _ := s.RunContext(context.Background())
	return m
}

// RunContext is Run with cancellation: the context is polled every few
// hundred cycles and a cancellation surfaces as a wrapped ctx.Err(). A nil
// context means Background.
func (s *Simulator) RunContext(ctx context.Context) (Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp, ctx := obs.StartSpanCtx(ctx, "simnet.run",
		obs.F("rate", s.cfg.InjectionRate),
		obs.F("warmup_cycles", s.cfg.WarmupCycles),
		obs.F("measure_cycles", s.cfg.MeasureCycles),
		obs.F("seed", s.cfg.Seed))
	total := s.cfg.WarmupCycles + s.cfg.MeasureCycles
	for c := 0; c < total; c++ {
		if c%256 == 0 {
			if err := ctx.Err(); err != nil {
				sp.End(obs.F("err", true))
				return Metrics{}, fmt.Errorf("simnet: run cancelled at cycle %d: %w", s.cycle, err)
			}
		}
		if c == s.cfg.WarmupCycles {
			s.measuring = true
			s.metrics.measureStart = s.cycle
		}
		s.step()
	}
	s.metrics.finalizeLinks(s.linkFlits, s.linkDir, s.cfg)
	s.metrics.finalize(s.cfg, s.net)
	sp.End(
		obs.F("generated_messages", s.metrics.GeneratedMessages),
		obs.F("delivered_messages", s.metrics.DeliveredMessages),
		obs.F("lost_messages", s.metrics.LostMessages),
		obs.F("offered_flits", s.metrics.offeredFlits),
		obs.F("delivered_flits", s.metrics.deliveredFlits),
		obs.F("lost_flits", s.metrics.LostFlits),
		obs.F("offered_traffic", s.metrics.OfferedTraffic),
		obs.F("accepted_traffic", s.metrics.AcceptedTraffic),
		obs.F("avg_latency", s.metrics.AvgLatency),
		obs.F("saturated", s.metrics.Saturated()))
	if s.queueHist != nil {
		s.queueHist.Emit(obs.F("rate", s.cfg.InjectionRate), obs.F("seed", s.cfg.Seed))
	}
	return s.metrics, nil
}

// Advance runs the simulator forward by the given number of cycles without
// starting or finalizing a measurement window — the hook steady-state
// benchmarks and tests use to time (and count allocations of) the bare
// simulation loop.
func (s *Simulator) Advance(cycles int) {
	for c := 0; c < cycles; c++ {
		s.step()
	}
}

// step advances the simulation one cycle.
func (s *Simulator) step() {
	s.processLinkEvents()
	s.generate()
	s.allocateRoutes()
	s.transferFlits()
	if s.measuring {
		s.sampleQueues()
	}
	s.cycle++
}

// timedLinkEvent is one entry of the failure/repair timeline, carrying the
// dense IDs of the link's two directions.
type timedLinkEvent struct {
	cycle  int64
	d1, d2 int32
	down   bool
}

// processLinkEvents applies all timeline entries due at the current cycle.
func (s *Simulator) processLinkEvents() {
	for s.eventIdx < len(s.events) && s.events[s.eventIdx].cycle <= s.cycle {
		ev := s.events[s.eventIdx]
		s.eventIdx++
		s.wake[s.linkDir[ev.d1].from] = true
		s.wake[s.linkDir[ev.d2].from] = true
		if !ev.down {
			s.deadLink[ev.d1] = false
			s.deadLink[ev.d2] = false
			continue
		}
		s.deadLink[ev.d1] = true
		s.deadLink[ev.d2] = true
		// Worms holding a virtual channel of the dying link are lost.
		for _, dl := range [2]int32{ev.d1, ev.d2} {
			for _, bid := range s.linkVCs[dl] {
				if mi := s.bufs[bid].msg; mi != none {
					s.loseMessage(mi)
				}
			}
		}
	}
}

// loseMessage drops every flit of m from every buffer on its residency
// trail, releases the virtual channels and routes it held, accounts the
// loss, and recycles the arena slot. A VC buffer it owns is emptied and
// freed; the source queue it heads moves on to the next message.
func (s *Simulator) loseMessage(mi int32) {
	m := &s.msgs[mi]
	if m.lost {
		return
	}
	m.lost = true
	// startMessage below can grow s.msgs: m is not used past this point.
	lostFlits := int64(m.size - m.delivered)
	for _, bid := range m.bufs {
		in := &s.bufs[bid]
		if in.msg != mi {
			continue
		}
		in.route, in.sink, in.routedMsg = none, false, none
		s.delist(bid)
		if in.srcHost >= 0 {
			s.srcQueueFlits -= int64(in.n)
			s.nextMessage(bid, in)
			continue
		}
		in.msg, in.seq, in.n = none, 0, 0
		s.wake[s.linkDir[in.linkID].from] = true
	}
	if s.measuring {
		s.metrics.lostMessages++
		s.metrics.lostFlits += lostFlits
	}
	s.freeMessage(mi)
}

// samplePeriod is how often (in measured cycles) a live "simnet.sample"
// event is emitted when a sink is installed — coarse enough to stay off
// the critical path, fine enough to draw queue-occupancy and active-worm
// counter tracks in the Chrome trace / SSE views.
const samplePeriod = 256

// sampleQueues accumulates source-queue occupancy for the mean-queue
// metric (an early saturation indicator: queues grow without bound past
// the saturation point). The occupancy total is maintained incrementally,
// so the sample is O(1). When observability is on (queueHist was created
// at New time), every samplePeriod-th cycle additionally emits a live
// sample with the current occupancy and in-flight worm count.
func (s *Simulator) sampleQueues() {
	s.metrics.queueSamples++
	s.metrics.queueFlitsSum += s.srcQueueFlits
	if s.queueHist != nil {
		s.queueHist.Observe(float64(s.srcQueueFlits))
		if s.metrics.queueSamples%samplePeriod == 1 {
			obs.Event("simnet.sample",
				obs.F("cycle", s.cycle),
				obs.F("rate", s.cfg.InjectionRate),
				obs.F("queue_flits", s.srcQueueFlits),
				obs.F("active_worms", s.active))
		}
	}
}

// meanMessageFlits returns the expected message length under the
// configured size mix.
func (s *Simulator) meanMessageFlits() float64 {
	if s.cfg.BimodalFraction == 0 {
		return float64(s.cfg.MessageFlits)
	}
	return s.cfg.BimodalFraction*float64(s.cfg.BimodalFlits) +
		(1-s.cfg.BimodalFraction)*float64(s.cfg.MessageFlits)
}

// drawMessageSize samples the configured size distribution.
func (s *Simulator) drawMessageSize() int {
	if s.cfg.BimodalFraction > 0 && s.rng.Float64() < s.cfg.BimodalFraction {
		return s.cfg.BimodalFlits
	}
	return s.cfg.MessageFlits
}

// allocMessage returns a fresh or recycled message arena slot.
func (s *Simulator) allocMessage() int32 {
	if n := len(s.freeMsgs); n > 0 {
		mi := s.freeMsgs[n-1]
		s.freeMsgs = s.freeMsgs[:n-1]
		return mi
	}
	s.msgs = append(s.msgs, message{})
	return int32(len(s.msgs) - 1)
}

// freeMessage recycles a slot whose message is fully delivered or purged:
// no buffer references it anymore.
func (s *Simulator) freeMessage(mi int32) {
	s.freeMsgs = append(s.freeMsgs, mi)
	s.active--
}

// generate draws new messages at every host. The scan order over source
// queues — and therefore the rng draw order (acceptance, destination,
// size) — is part of the determinism contract.
func (s *Simulator) generate() {
	meanFlits := s.meanMessageFlits()
	for _, bid := range s.srcQueues {
		in := &s.bufs[bid]
		rate := s.cfg.InjectionRate
		if s.cfg.RateScale != nil {
			rate *= s.cfg.RateScale[in.srcHost]
		}
		p := rate / meanFlits // message generation probability
		if p <= 0 || s.rng.Float64() >= p {
			continue
		}
		dst := s.pattern.Destination(int(in.srcHost), s.rng)
		pm := pending{dst: int32(dst), size: int32(s.drawMessageSize()), created: s.cycle}
		if in.msg == none {
			s.startMessage(bid, in, pm)
		} else {
			q := &s.pending[in.srcHost]
			// A full array whose first half has been taken is reused.
			if len(q.items) == cap(q.items) && 2*q.next >= len(q.items) {
				q.items, q.next = q.items[:copy(q.items, q.items[q.next:])], 0
			}
			q.items = append(q.items, pm)
		}
		s.active++
		s.srcQueueFlits += int64(pm.size)
		if s.measuring {
			s.metrics.generatedMessages++
			s.metrics.offeredFlits += int64(pm.size)
		}
	}
}

// startMessage makes p the head message of the empty source queue bid: it
// takes an arena slot, and the queue's switch is woken to route its
// header. The arena can grow, so callers hold no *message across it.
func (s *Simulator) startMessage(bid int32, in *buffer, p pending) {
	mi := s.allocMessage()
	m := &s.msgs[mi]
	*m = message{src: in.srcHost, dst: p.dst, dstSwitch: s.hostSwitch[p.dst], size: p.size,
		created: p.created, injected: -1, bufs: append(m.bufs[:0], bid)}
	in.msg, in.seq, in.n = mi, 0, p.size
	s.wake[in.atSwitch] = true
}

// nextMessage moves source queue bid past a head message that has left or
// was lost: the first pending message, if any, becomes the head. The
// queue leaves the routed list with the old head, in releaseHead or
// loseMessage.
func (s *Simulator) nextMessage(bid int32, in *buffer) {
	q := &s.pending[in.srcHost]
	if q.next == len(q.items) {
		in.msg, in.seq, in.n = none, 0, 0
		return
	}
	p := q.items[q.next]
	if q.next++; q.next == len(q.items) {
		q.items, q.next = q.items[:0], 0
	}
	s.startMessage(bid, in, p)
}

// enlist adds a non-empty buffer whose head message holds a route to its
// switch's routed list (idempotent).
func (s *Simulator) enlist(bid int32) {
	b := &s.bufs[bid]
	if b.routedPos >= 0 {
		return
	}
	lst := s.routed[b.atSwitch]
	b.routedPos = int32(len(lst))
	s.routed[b.atSwitch] = append(lst, bid)
}

// delist removes a buffer that emptied or lost its route from its
// switch's routed list by swap-removal (idempotent).
func (s *Simulator) delist(bid int32) {
	b := &s.bufs[bid]
	pos := b.routedPos
	if pos < 0 {
		return
	}
	lst := s.routed[b.atSwitch]
	last := lst[len(lst)-1]
	lst[pos] = last
	s.bufs[last].routedPos = pos
	s.routed[b.atSwitch] = lst[:len(lst)-1]
	b.routedPos = -1
}

// allocateRoutes lets unrouted header flits at buffer heads acquire an
// output virtual channel (or the ejection port). Allocation order rotates
// per switch to avoid structural starvation. Only switches whose wake flag
// is set are scanned: a skipped scan would route and drop nothing (see
// the package comment), so skipping it changes no outcome. The flag is
// cleared before the scan, so a header that a stranded worm's purge
// exposes during it is scanned next cycle, as before.
func (s *Simulator) allocateRoutes() {
	for sw, ins := range s.inputs {
		if !s.wake[sw] {
			continue
		}
		s.wake[sw] = false
		n := len(ins)
		i := int(s.cycle % int64(n))
		for k := 0; k < n; k++ {
			bid := ins[i]
			if i++; i == n {
				i = 0
			}
			in := &s.bufs[bid]
			if in.n == 0 || in.seq != 0 || in.routedMsg == in.msg {
				continue
			}
			s.routeHeader(sw, bid, in.msg)
		}
	}
}

// routeHeader tries to reserve the next channel for the message whose
// header sits at the head of buffer inID at switch sw. The candidate
// continuation links are precomputed per (switch, destination, phase).
func (s *Simulator) routeHeader(sw int, inID, mi int32) {
	m := &s.msgs[mi]
	if int32(sw) == m.dstSwitch {
		in := &s.bufs[inID]
		in.route, in.sink, in.routedMsg = none, true, mi
		s.enlist(inID)
		return
	}
	phase := 0
	if m.descending {
		phase = 1
	}
	cands := s.cand[phase][sw*s.net.Switches()+int(m.dstSwitch)]
	if s.cfg.DeterministicRouting {
		// Fixed path, fixed channel: wait for exactly one VC.
		if len(cands) == 0 {
			return
		}
		lid := cands[0]
		if s.deadLink[lid] {
			// The only route crosses a failed link and the tables don't
			// know yet: the worm is stranded and dropped.
			s.loseMessage(mi)
			return
		}
		bid := s.linkVCs[lid][0]
		if s.admissible(bid, m) {
			s.acquire(inID, bid, mi, m)
		}
		return
	}
	// Adaptive selection: first hop with a free VC, scanning hops and VCs
	// from a rotating offset so ties spread across channels.
	off := int(s.cycle) // deterministic, varies per cycle
	anyAlive := false
	for hi := 0; hi < len(cands); hi++ {
		lid := cands[(hi+off)%len(cands)]
		if s.deadLink[lid] {
			continue
		}
		anyAlive = true
		vcs := s.linkVCs[lid]
		for vi := 0; vi < len(vcs); vi++ {
			bid := vcs[(vi+off)%len(vcs)]
			if s.admissible(bid, m) {
				s.acquire(inID, bid, mi, m)
				// The descending state must change only when the flit
				// actually moves; the phase commits in forward.
				return
			}
		}
	}
	if len(cands) > 0 && !anyAlive {
		// Every admissible continuation crosses a failed link: stranded.
		s.loseMessage(mi)
	}
	// Blocked: try again next cycle.
}

// admissible reports whether the candidate VC buffer can be acquired by m:
// free, and under cut-through big enough to absorb the entire message.
func (s *Simulator) admissible(bid int32, m *message) bool {
	b := &s.bufs[bid]
	if b.msg != none {
		return false
	}
	if s.cfg.CutThrough && b.cap < m.size {
		return false
	}
	return true
}

// acquire reserves the downstream VC buffer bid for mi, routes buffer
// inID to it and records it on the message's residency trail.
func (s *Simulator) acquire(inID, bid, mi int32, m *message) {
	s.bufs[bid].msg = mi
	in := &s.bufs[inID]
	in.route, in.sink, in.routedMsg = bid, false, mi
	s.enlist(inID)
	m.bufs = append(m.bufs, bid)
}

// transferFlits moves at most one flit per output port. For each switch it
// makes one pass over the routed buffers to find, per requested port, the
// input with the best rotating-arbitration rank, then executes the moves.
// This is equivalent to the per-port rotating scan because, within one
// switch's pass, the request set is fixed: pushes into this switch come
// only from lower-numbered switches (already processed), each buffer
// requests exactly one port, and a served buffer either keeps requesting
// the port it already used or stops requesting (tail departed).
func (s *Simulator) transferFlits() {
	req := s.reqPorts[:0]
	for sw, routed := range s.routed {
		if len(routed) == 0 {
			continue
		}
		n := int32(len(s.inputs[sw]))
		start := int32(s.cycle % int64(n))
		req = req[:0]
		for _, bid := range routed {
			in := &s.bufs[bid]
			var pid int32
			if in.sink {
				pid = s.portOfHost[s.msgs[in.msg].dst]
			} else {
				rb := &s.bufs[in.route]
				if rb.n >= rb.cap {
					continue
				}
				pid = s.portOfLink[rb.linkID]
			}
			rank := in.idx - start
			if rank < 0 {
				rank += n
			}
			p := &s.ports[pid]
			if p.winner == none {
				p.winner, p.winnerRank = bid, rank
				req = append(req, pid)
			} else if rank < p.winnerRank {
				p.winner, p.winnerRank = bid, rank
			}
		}
		for _, pid := range req {
			p := &s.ports[pid]
			bid := p.winner
			p.winner = none
			in := &s.bufs[bid]
			if p.eject >= 0 {
				s.deliver(bid, in)
			} else {
				s.forward(bid, in)
			}
		}
	}
	s.reqPorts = req[:0]
}

// popHead removes the next flit of buffer bid, maintaining the queue
// occupancy total and the routed list. A source queue whose head message
// has left moves on to the next message.
func (s *Simulator) popHead(bid int32, in *buffer) {
	in.seq++
	in.n--
	if in.srcHost >= 0 {
		s.srcQueueFlits--
		if in.n == 0 {
			s.nextMessage(bid, in)
		}
	} else if in.n == 0 {
		s.delist(bid)
	}
}

// forward moves the next flit of `in` into its routed downstream VC. A
// header wakes the downstream switch; a body flit reaching an empty,
// already routed buffer puts it back on the routed list.
func (s *Simulator) forward(bid int32, in *buffer) {
	mi, seq, route := in.msg, in.seq, in.route
	dst := &s.bufs[route]
	s.popHead(bid, in)
	dst.n++
	if dst.routedMsg != none {
		s.enlist(route)
	}
	if seq == 0 {
		s.wake[dst.atSwitch] = true
	}
	if s.measuring {
		s.linkFlits[dst.linkID]++
	}
	m := &s.msgs[mi]
	if seq == 0 {
		if m.injected < 0 {
			m.injected = s.cycle
		}
		// Crossing a down link commits the worm to its down phase.
		if !s.linkUp[dst.linkID] {
			m.descending = true
		}
	}
	if seq == m.size-1 {
		s.releaseHead(bid, in)
	}
}

// deliver consumes the next flit of `in` at its destination host.
func (s *Simulator) deliver(bid int32, in *buffer) {
	mi, seq := in.msg, in.seq
	s.popHead(bid, in)
	m := &s.msgs[mi]
	if seq == 0 && m.injected < 0 {
		// Source and destination share a switch: the message never crossed
		// a link; treat ejection start as injection.
		m.injected = s.cycle
	}
	m.delivered++
	if s.measuring {
		s.metrics.deliveredFlits++
	}
	if seq == m.size-1 {
		s.releaseHead(bid, in)
		if s.measuring && m.created >= s.metrics.measureStart {
			s.metrics.deliveredMessages++
			s.metrics.totalLatency += s.cycle - m.injected
			s.metrics.totalQueueLatency += s.cycle - m.created
			s.metrics.latencySamples = append(s.metrics.latencySamples, s.cycle-m.injected)
			if s.cfg.HostCluster != nil {
				s.metrics.addClusterSample(s.cfg.HostCluster[m.src], int64(m.size), s.cycle-m.injected)
			}
		}
		s.freeMessage(mi)
	}
}

// releaseHead clears the routing state of buffer bid (in) after a tail
// departs. When bid is a virtual-channel buffer it frees the channel and
// wakes the switch upstream of it, where headers may wait for it.
func (s *Simulator) releaseHead(bid int32, in *buffer) {
	if in.srcHost < 0 {
		in.msg, in.seq = none, 0
		s.wake[s.linkDir[in.linkID].from] = true
	}
	in.route, in.sink, in.routedMsg = none, false, none
	s.delist(bid)
}

// Drain stops injection and keeps switching until the network empties or
// maxCycles elapse, returning whether it fully drained. For a
// deadlock-free configuration the drain always completes; tests use it as
// the liveness oracle.
func (s *Simulator) Drain(maxCycles int) bool {
	saved := s.cfg.InjectionRate
	s.cfg.InjectionRate = 0
	defer func() { s.cfg.InjectionRate = saved }()
	for c := 0; c < maxCycles; c++ {
		if s.inflight() == 0 {
			return true
		}
		s.step()
	}
	return s.inflight() == 0
}

// inflight counts flits in every buffer, pending messages included.
func (s *Simulator) inflight() int {
	total := 0
	for i := range s.bufs {
		total += int(s.bufs[i].n)
	}
	for _, q := range s.pending {
		for _, p := range q.items[q.next:] {
			total += int(p.size)
		}
	}
	return total
}
