package simnet

import (
	"fmt"
	"math"
	"sort"

	"commsched/internal/topology"
)

// Metrics aggregates one simulation run's measurement window.
type Metrics struct {
	measureStart      int64
	generatedMessages int64
	deliveredMessages int64
	offeredFlits      int64
	deliveredFlits    int64
	lostMessages      int64
	lostFlits         int64
	totalLatency      int64 // network latency (header injection → tail delivery)
	totalQueueLatency int64 // total latency (generation → tail delivery)

	// Derived (filled by finalize).

	// MeasuredCycles is the measurement window length.
	MeasuredCycles int
	// Switches is the network size used for traffic normalization.
	Switches int
	// GeneratedMessages counts messages created in the window.
	GeneratedMessages int64
	// DeliveredMessages counts messages created in the window and fully
	// delivered before its end (the latency sample set).
	DeliveredMessages int64
	// DeliveredFlits counts every flit consumed at a destination during
	// the window (including flits of messages generated before it).
	DeliveredFlits int64
	// OfferedTraffic is the generated load in flits/switch/cycle.
	OfferedTraffic float64
	// AcceptedTraffic is the delivered load in flits/switch/cycle — the
	// paper's "traffic" axis, and its "throughput" when maximal.
	AcceptedTraffic float64
	// LostMessages counts messages dropped by link failures during the
	// window (the worm held a channel of a dying link, or every
	// admissible hop was dead).
	LostMessages int64
	// LostFlits counts the not-yet-delivered flits of those messages.
	LostFlits int64
	// DeliveredFraction is delivered/(delivered+lost) messages — 1.0 on a
	// healthy run, below 1.0 when link failures destroyed traffic.
	DeliveredFraction float64
	// AvgLatency is the mean network latency in cycles (header injection
	// to tail delivery), the paper's latency measure.
	AvgLatency float64
	// AvgTotalLatency additionally includes source queueing (generation to
	// tail delivery).
	AvgTotalLatency float64
	// LinkLoads reports per-directed-link traffic, sorted by descending
	// utilization. It exposes the routing-induced load imbalance (e.g.
	// up*/down* concentrating traffic near the root).
	LinkLoads []LinkLoad
	// LatencyP50, LatencyP95 and LatencyP99 are network-latency
	// percentiles over the delivered-message sample set (0 when no
	// messages were delivered).
	LatencyP50, LatencyP95, LatencyP99 float64

	// AvgSourceQueueFlits is the mean number of flits waiting in the
	// source queues, per host, over the measurement window — an early
	// saturation indicator (it diverges past the saturation throughput).
	AvgSourceQueueFlits float64

	// PerCluster breaks delivery down by the sending application when
	// Config.HostCluster was provided, ordered by cluster index.
	PerCluster []ClusterMetrics

	// latencySamples collects per-message network latencies during the
	// window (cleared after finalize computes the percentiles).
	latencySamples []int64
	queueSamples   int64
	queueFlitsSum  int64
	clusterAcc     map[int]*clusterAccum
}

// ClusterMetrics is one application's share of the measurement window.
type ClusterMetrics struct {
	// Cluster is the application index (Config.HostCluster value).
	Cluster int
	// DeliveredMessages counts complete deliveries originated by the
	// cluster's hosts.
	DeliveredMessages int64
	// DeliveredFlits counts the corresponding flits.
	DeliveredFlits int64
	// AvgLatency is the cluster's mean network latency in cycles.
	AvgLatency float64
}

type clusterAccum struct {
	messages, flits, latency int64
}

// addClusterSample records one delivered message for a cluster.
func (m *Metrics) addClusterSample(cluster int, flits, latency int64) {
	if m.clusterAcc == nil {
		m.clusterAcc = make(map[int]*clusterAccum)
	}
	acc := m.clusterAcc[cluster]
	if acc == nil {
		acc = &clusterAccum{}
		m.clusterAcc[cluster] = acc
	}
	acc.messages++
	acc.flits += flits
	acc.latency += latency
}

// LinkLoad is the measured traffic of one directed inter-switch link.
type LinkLoad struct {
	// From and To identify the directed link.
	From, To int
	// Flits crossed the link during the measurement window.
	Flits int64
	// Utilization is Flits divided by the window length, in [0,1].
	Utilization float64
}

// finalizeLinks derives the sorted per-link load report. flits is indexed
// by dense directed-link ID, dirs maps IDs back to endpoints; links no
// flit crossed are omitted from the report.
func (m *Metrics) finalizeLinks(flits []int64, dirs []directedLink, cfg Config) {
	if cfg.MeasureCycles <= 0 {
		return
	}
	cyc := float64(cfg.MeasureCycles)
	for id, n := range flits {
		if n == 0 {
			continue
		}
		dl := dirs[id]
		m.LinkLoads = append(m.LinkLoads, LinkLoad{
			From: dl.from, To: dl.to, Flits: n, Utilization: float64(n) / cyc,
		})
	}
	sort.Slice(m.LinkLoads, func(i, j int) bool {
		if m.LinkLoads[i].Utilization != m.LinkLoads[j].Utilization {
			return m.LinkLoads[i].Utilization > m.LinkLoads[j].Utilization
		}
		if m.LinkLoads[i].From != m.LinkLoads[j].From {
			return m.LinkLoads[i].From < m.LinkLoads[j].From
		}
		return m.LinkLoads[i].To < m.LinkLoads[j].To
	})
}

// finalize derives the public fields.
func (m *Metrics) finalize(cfg Config, net *topology.Network) {
	m.MeasuredCycles = cfg.MeasureCycles
	m.Switches = net.Switches()
	m.GeneratedMessages = m.generatedMessages
	m.DeliveredMessages = m.deliveredMessages
	m.DeliveredFlits = m.deliveredFlits
	m.LostMessages = m.lostMessages
	m.LostFlits = m.lostFlits
	if total := m.deliveredMessages + m.lostMessages; total > 0 {
		m.DeliveredFraction = float64(m.deliveredMessages) / float64(total)
	} else {
		m.DeliveredFraction = 1
	}
	cyc := float64(cfg.MeasureCycles)
	sw := float64(net.Switches())
	if cyc > 0 && sw > 0 {
		m.OfferedTraffic = float64(m.offeredFlits) / cyc / sw
		m.AcceptedTraffic = float64(m.deliveredFlits) / cyc / sw
	}
	if m.deliveredMessages > 0 {
		m.AvgLatency = float64(m.totalLatency) / float64(m.deliveredMessages)
		m.AvgTotalLatency = float64(m.totalQueueLatency) / float64(m.deliveredMessages)
	}
	if m.queueSamples > 0 && net.Hosts() > 0 {
		m.AvgSourceQueueFlits = float64(m.queueFlitsSum) / float64(m.queueSamples) / float64(net.Hosts())
	}
	if m.clusterAcc != nil {
		for c, acc := range m.clusterAcc {
			cm := ClusterMetrics{Cluster: c, DeliveredMessages: acc.messages, DeliveredFlits: acc.flits}
			if acc.messages > 0 {
				cm.AvgLatency = float64(acc.latency) / float64(acc.messages)
			}
			m.PerCluster = append(m.PerCluster, cm)
		}
		sort.Slice(m.PerCluster, func(i, j int) bool { return m.PerCluster[i].Cluster < m.PerCluster[j].Cluster })
		m.clusterAcc = nil
	}
	if len(m.latencySamples) > 0 {
		sort.Slice(m.latencySamples, func(i, j int) bool { return m.latencySamples[i] < m.latencySamples[j] })
		m.LatencyP50 = float64(percentile(m.latencySamples, 0.50))
		m.LatencyP95 = float64(percentile(m.latencySamples, 0.95))
		m.LatencyP99 = float64(percentile(m.latencySamples, 0.99))
		m.latencySamples = nil
	}
}

// percentile returns the nearest-rank percentile of a sorted sample:
// its ⌈q·n⌉-th smallest value.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Saturated reports whether the run failed to deliver (within tolerance)
// the traffic that was offered — the operating point is beyond the
// network's saturation throughput.
func (m *Metrics) Saturated() bool {
	if m.OfferedTraffic == 0 {
		return false
	}
	return m.AcceptedTraffic < 0.95*m.OfferedTraffic
}

// String summarizes the run.
func (m *Metrics) String() string {
	return fmt.Sprintf("offered=%.4f accepted=%.4f flits/switch/cycle, latency=%.1f cycles (%.1f incl. queueing), delivered=%d msgs",
		m.OfferedTraffic, m.AcceptedTraffic, m.AvgLatency, m.AvgTotalLatency, m.DeliveredMessages)
}
