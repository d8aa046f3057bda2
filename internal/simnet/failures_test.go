package simnet

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// failureConfig is a moderate, non-saturating load: messages are in
// flight when links die, yet the network has spare capacity, so every
// lost worm is a delivery that would otherwise have completed.
func failureConfig() Config {
	return Config{
		InjectionRate: 0.06,
		WarmupCycles:  500,
		MeasureCycles: 3000,
		Seed:          7,
	}
}

func TestLinkEventValidation(t *testing.T) {
	r := newRig(t, 8, 4, 1, 1, false)
	cases := []struct {
		name string
		ev   LinkEvent
		want string
	}{
		{"missing link", LinkEvent{A: 0, B: 7, At: 10}, "does not exist"},
		{"negative cycle", LinkEvent{A: r.net.Links()[0].A, B: r.net.Links()[0].B, At: -1}, "negative"},
		{"repair before failure", LinkEvent{A: r.net.Links()[0].A, B: r.net.Links()[0].B, At: 100, RepairAt: 50}, "repair"},
	}
	for _, tc := range cases {
		cfg := failureConfig()
		cfg.LinkEvents = []LinkEvent{tc.ev}
		if tc.name == "missing link" && r.net.HasLink(0, 7) {
			t.Skip("test topology happens to have link 0-7")
		}
		_, err := New(r.net, r.rt, r.pattern, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestMidRunLinkFailureLosesTraffic(t *testing.T) {
	r := newRig(t, 16, 4, 2000, 1, false)
	cfg := failureConfig()

	healthy, err := New(r.net, r.rt, r.pattern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := healthy.Run()
	if base.LostMessages != 0 || base.DeliveredFraction != 1 {
		t.Fatalf("healthy run lost traffic: %+v", base)
	}

	// Kill three links mid-measurement (static routing keeps using them).
	links := r.net.Links()
	cfg.LinkEvents = []LinkEvent{
		{A: links[0].A, B: links[0].B, At: 1000},
		{A: links[1].A, B: links[1].B, At: 1200},
		{A: links[2].A, B: links[2].B, At: 1400},
	}
	sim, err := New(r.net, r.rt, r.pattern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run()
	if m.LostMessages == 0 {
		t.Fatal("no messages lost despite three dead links under load")
	}
	if m.LostFlits < m.LostMessages {
		t.Fatalf("lost %d messages but only %d flits", m.LostMessages, m.LostFlits)
	}
	if m.DeliveredFraction >= 1 {
		t.Fatalf("DeliveredFraction = %v, want < 1", m.DeliveredFraction)
	}
	if m.DeliveredFraction <= 0 {
		t.Fatalf("DeliveredFraction = %v: nothing delivered at all", m.DeliveredFraction)
	}
	// Losses must be visible as a delivery gap, not just counters: fewer
	// messages complete than in the healthy run at identical offered load.
	if m.DeliveredMessages >= base.DeliveredMessages {
		t.Fatalf("deliveries did not degrade: %d >= %d", m.DeliveredMessages, base.DeliveredMessages)
	}
}

func TestTransientLinkFailureRepairs(t *testing.T) {
	r := newRig(t, 16, 4, 2000, 1, false)
	cfg := failureConfig()
	links := r.net.Links()
	// Fail early in the window, repair halfway: after repair the link
	// carries traffic again, so losses stay bounded and the simulator
	// keeps delivering.
	cfg.LinkEvents = []LinkEvent{
		{A: links[0].A, B: links[0].B, At: 800, RepairAt: 2000},
	}
	sim, err := New(r.net, r.rt, r.pattern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Run()
	permCfg := failureConfig()
	permCfg.LinkEvents = []LinkEvent{{A: links[0].A, B: links[0].B, At: 800}}
	permSim, err := New(r.net, r.rt, r.pattern, permCfg)
	if err != nil {
		t.Fatal(err)
	}
	perm := permSim.Run()
	if m.DeliveredMessages == 0 {
		t.Fatal("repaired run delivered nothing")
	}
	if m.LostMessages > perm.LostMessages {
		t.Fatalf("repaired link lost more (%d) than permanent failure (%d)", m.LostMessages, perm.LostMessages)
	}
}

// TestFailureRunStillDrains checks liveness: after losses the network
// still empties (no stuck flits from half-purged worms).
func TestFailureRunStillDrains(t *testing.T) {
	r := newRig(t, 16, 4, 2000, 1, false)
	cfg := failureConfig()
	links := r.net.Links()
	cfg.LinkEvents = []LinkEvent{
		{A: links[0].A, B: links[0].B, At: 1000},
		{A: links[3].A, B: links[3].B, At: 1100},
	}
	sim, err := New(r.net, r.rt, r.pattern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !sim.Drain(200000) {
		t.Fatal("network failed to drain after link failures")
	}
}

func TestRunContextCancellation(t *testing.T) {
	r := newRig(t, 16, 4, 2000, 1, false)
	cfg := failureConfig()
	cfg.MeasureCycles = 1000000 // far longer than the cancelled run allows
	sim, err := New(r.net, r.rt, r.pattern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepCancellation(t *testing.T) {
	r := newRig(t, 16, 4, 2000, 1, false)
	cfg := failureConfig()
	cfg.MeasureCycles = 1000000
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, r.net, r.rt, r.pattern, cfg, []float64{0.1, 0.2, 0.3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestLoseMessageMultiBufferWorm(t *testing.T) {
	// Drop a worm whose flits span several buffers mid-flight and verify
	// the purge is complete: every flit gone, every virtual-channel
	// ownership and route released, the arena slot recycled, and the
	// network still able to drain. The global scan below double-checks
	// that the per-message residency trail really covers every buffer the
	// worm touched.
	r := newRig(t, 12, 4, 3, 1, true)
	sim, err := New(r.net, r.rt, r.pattern, Config{
		InjectionRate: 0.4, MessageFlits: 16, BufferFlits: 4,
		WarmupCycles: 1, MeasureCycles: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Step until some message's flits occupy >= 3 distinct buffers.
	victim := none
	for c := 0; c < 2000 && victim == none; c++ {
		sim.step()
		span := make(map[int32]int)
		for bid := range sim.bufs {
			if b := &sim.bufs[bid]; b.n > 0 {
				span[b.msg]++
			}
		}
		for mi, k := range span {
			if k >= 3 {
				victim = mi
				break
			}
		}
	}
	if victim == none {
		t.Fatal("no worm spanning 3+ buffers appeared within 2000 cycles")
	}
	owned, routed, victimFlits := 0, 0, 0
	for bid := range sim.bufs {
		b := &sim.bufs[bid]
		if b.msg == victim && b.srcHost < 0 {
			owned++
		}
		if b.routedMsg == victim {
			routed++
		}
		if b.msg == victim {
			victimFlits += int(b.n)
		}
	}
	if owned == 0 || routed == 0 {
		t.Fatalf("victim holds %d VCs and %d routes; want both > 0 mid-flight", owned, routed)
	}
	pre := sim.inflight()

	sim.loseMessage(victim)

	for bid := range sim.bufs {
		b := &sim.bufs[bid]
		if b.msg == victim && b.srcHost < 0 {
			t.Fatalf("buffer %d still owned by the lost message", bid)
		}
		if b.routedMsg == victim {
			t.Fatalf("buffer %d still routed for the lost message", bid)
		}
		if b.msg == victim && b.n > 0 {
			t.Fatalf("buffer %d still holds a flit of the lost message", bid)
		}
	}
	if got := sim.inflight(); got != pre-victimFlits {
		t.Fatalf("inflight %d after purge, want %d - %d", got, pre, victimFlits)
	}
	recycled := false
	for _, mi := range sim.freeMsgs {
		if mi == victim {
			recycled = true
		}
	}
	if !recycled {
		t.Fatal("lost message's arena slot was not recycled")
	}
	if !sim.Drain(200000) {
		t.Fatal("network failed to drain after the purge")
	}
}
