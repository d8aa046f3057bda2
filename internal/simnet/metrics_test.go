package simnet

import (
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.50, 50},
		{0.95, 100},
		{0.10, 10},
		{1.0, 100},
	}
	for _, c := range cases {
		if got := percentile(s, c.q); got != c.want {
			t.Fatalf("percentile(%.2f) = %d, want %d", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Fatal("percentile of empty sample must be 0")
	}
	if percentile([]int64{7}, 0.01) != 7 {
		t.Fatal("single-sample percentile must return the sample")
	}
	// 12 samples at q = 0.95: ⌈11.4⌉ = 12, the largest; rounding 11.4
	// would return the 11th.
	if got := percentile([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 0.95); got != 12 {
		t.Fatalf("percentile(0.95) of 1…12 = %d, want 12", got)
	}
}

func TestLatencyPercentilesPopulated(t *testing.T) {
	r := newRig(t, 12, 4, 3, 1, true)
	sim, err := New(r.net, r.rt, r.pattern, Config{
		InjectionRate: 0.15, WarmupCycles: 500, MeasureCycles: 4000, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run()
	if m.DeliveredMessages == 0 {
		t.Fatal("nothing delivered")
	}
	if m.LatencyP50 <= 0 || m.LatencyP95 < m.LatencyP50 || m.LatencyP99 < m.LatencyP95 {
		t.Fatalf("percentiles not monotone: p50=%v p95=%v p99=%v", m.LatencyP50, m.LatencyP95, m.LatencyP99)
	}
	// The mean sits between p50 and p99 for any right-skewed latency
	// distribution; weaker sanity: mean within [min, p99].
	if m.AvgLatency > m.LatencyP99 {
		t.Fatalf("mean %v above p99 %v", m.AvgLatency, m.LatencyP99)
	}
	// Percentiles ≥ serialization bound of a 16-flit message.
	if m.LatencyP50 < 16 {
		t.Fatalf("p50 %v below 16-flit serialization bound", m.LatencyP50)
	}
}

func TestSourceQueueGrowsWithLoad(t *testing.T) {
	r := newRig(t, 12, 4, 3, 1, true)
	run := func(rate float64) Metrics {
		sim, err := New(r.net, r.rt, r.pattern, Config{
			InjectionRate: rate, WarmupCycles: 500, MeasureCycles: 4000, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	low, high := run(0.02), run(0.6)
	if low.AvgSourceQueueFlits > 2 {
		t.Fatalf("low-load queue occupancy %.2f, want near zero", low.AvgSourceQueueFlits)
	}
	if high.AvgSourceQueueFlits < 10*low.AvgSourceQueueFlits || high.AvgSourceQueueFlits < 5 {
		t.Fatalf("saturated queue occupancy %.2f did not diverge (low was %.2f)",
			high.AvgSourceQueueFlits, low.AvgSourceQueueFlits)
	}
}

func TestMetricsStringMentionsKeyNumbers(t *testing.T) {
	m := Metrics{OfferedTraffic: 0.5, AcceptedTraffic: 0.25, AvgLatency: 42}
	s := m.String()
	for _, want := range []string{"0.5000", "0.2500", "42"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q: %s", want, s)
		}
	}
}

func TestSaturatedEdgeCases(t *testing.T) {
	if (&Metrics{}).Saturated() {
		t.Fatal("zero metrics reported saturated")
	}
	m := Metrics{OfferedTraffic: 1.0, AcceptedTraffic: 0.5}
	if !m.Saturated() {
		t.Fatal("half-delivered load not reported saturated")
	}
	ok := Metrics{OfferedTraffic: 1.0, AcceptedTraffic: 0.99}
	if ok.Saturated() {
		t.Fatal("99% delivery reported saturated")
	}
}

func TestPerClusterMetrics(t *testing.T) {
	r := newRig(t, 8, 4, 3, 1, false)
	clusters := make([]int, r.net.Hosts())
	for h := range clusters {
		clusters[h] = h / 8 // 4 applications of 8 hosts (balanced mapping)
	}
	sim, err := New(r.net, r.rt, r.pattern, Config{
		InjectionRate: 0.1, WarmupCycles: 500, MeasureCycles: 4000, Seed: 23,
		HostCluster: clusters,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run()
	if len(m.PerCluster) != 4 {
		t.Fatalf("PerCluster has %d entries, want 4", len(m.PerCluster))
	}
	var msgs, flits int64
	for i, cm := range m.PerCluster {
		if cm.Cluster != i {
			t.Fatalf("clusters not sorted: %v", m.PerCluster)
		}
		if cm.DeliveredMessages == 0 || cm.AvgLatency <= 0 {
			t.Fatalf("cluster %d has no service: %+v", i, cm)
		}
		msgs += cm.DeliveredMessages
		flits += cm.DeliveredFlits
	}
	if msgs != m.DeliveredMessages {
		t.Fatalf("per-cluster messages %d != total %d", msgs, m.DeliveredMessages)
	}
}

func TestPerClusterValidation(t *testing.T) {
	r := newRig(t, 8, 4, 3, 1, false)
	if _, err := New(r.net, r.rt, r.pattern, Config{HostCluster: []int{1}}); err == nil {
		t.Fatal("wrong HostCluster length accepted")
	}
	bad := make([]int, r.net.Hosts())
	bad[3] = -1
	if _, err := New(r.net, r.rt, r.pattern, Config{HostCluster: bad}); err == nil {
		t.Fatal("negative cluster accepted")
	}
}

func TestNoPerClusterWithoutLabels(t *testing.T) {
	r := newRig(t, 8, 4, 3, 1, false)
	sim, err := New(r.net, r.rt, r.pattern, Config{
		InjectionRate: 0.1, WarmupCycles: 200, MeasureCycles: 1000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := sim.Run(); m.PerCluster != nil {
		t.Fatal("PerCluster populated without HostCluster labels")
	}
}
