package fault

import (
	"math/rand"
	"strings"
	"testing"

	"commsched/internal/topology"
)

// ring builds a ring of n switches (2-edge-connected, so any single link
// can fail without partitioning).
func ring(t *testing.T, n int) *topology.Network {
	t.Helper()
	links := make([]topology.Link, n)
	for i := 0; i < n; i++ {
		links[i] = topology.NormalizeLink(i, (i+1)%n)
	}
	net, err := topology.New("ring", n, links, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// path builds a path graph: every link is a bridge.
func path(t *testing.T, n int) *topology.Network {
	t.Helper()
	links := make([]topology.Link, n-1)
	for i := 0; i < n-1; i++ {
		links[i] = topology.Link{A: i, B: i + 1}
	}
	net, err := topology.New("path", n, links, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestApplyLinkFailure(t *testing.T) {
	net := ring(t, 6)
	d, err := Apply(net, Plan{Name: "one-link", Events: []Event{
		{Kind: LinkDown, Link: topology.Link{A: 0, B: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Identity() {
		t.Fatal("link failure must not renumber switches")
	}
	if d.Net.Switches() != 6 || d.Net.NumLinks() != 5 {
		t.Fatalf("degraded net has %d switches / %d links", d.Net.Switches(), d.Net.NumLinks())
	}
	if d.Net.HasLink(0, 1) {
		t.Fatal("failed link survived")
	}
	if len(d.RemovedLinks) != 1 || d.RemovedLinks[0] != (topology.Link{A: 0, B: 1}) {
		t.Fatalf("RemovedLinks = %v", d.RemovedLinks)
	}
	if !d.Net.Connected() {
		t.Fatal("degraded ring must stay connected")
	}
}

func TestApplySwitchFailureCompactsIDs(t *testing.T) {
	net := ring(t, 6)
	d, err := Apply(net, Plan{Events: []Event{{Kind: SwitchDown, Switch: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Identity() {
		t.Fatal("switch death must be reported as non-identity")
	}
	if got := d.DeadSwitches; len(got) != 1 || got[0] != 2 {
		t.Fatalf("DeadSwitches = %v", got)
	}
	if d.Net.Switches() != 5 {
		t.Fatalf("degraded switches = %d, want 5", d.Net.Switches())
	}
	// Old IDs 0,1,3,4,5 → new 0,1,2,3,4.
	wantOldToNew := []int{0, 1, -1, 2, 3, 4}
	for s, want := range wantOldToNew {
		if d.OldToNew[s] != want {
			t.Fatalf("OldToNew = %v, want %v", d.OldToNew, wantOldToNew)
		}
	}
	for newID, oldID := range d.NewToOld {
		if d.OldToNew[oldID] != newID {
			t.Fatalf("NewToOld inconsistent with OldToNew at %d", newID)
		}
	}
	// Ring minus one switch is a path over the survivors: links at
	// switch 2 (1-2, 2-3) are gone.
	if d.Net.HasLink(d.OldToNew[1], d.OldToNew[3]) {
		t.Fatal("phantom link through the dead switch")
	}
	if !d.Net.Connected() {
		t.Fatal("survivors must be connected")
	}
	if len(d.RemovedLinks) != 2 {
		t.Fatalf("RemovedLinks = %v, want the 2 links at switch 2", d.RemovedLinks)
	}
}

func TestApplyDisconnectionIsDescriptiveError(t *testing.T) {
	net := path(t, 5)
	_, err := Apply(net, Plan{Name: "cut-middle", Events: []Event{
		{Kind: LinkDown, Link: topology.Link{A: 2, B: 3}},
	}})
	if err == nil {
		t.Fatal("partitioning plan accepted")
	}
	if !strings.Contains(err.Error(), "unreachable") || !strings.Contains(err.Error(), "cut-middle") {
		t.Fatalf("error not descriptive: %v", err)
	}
}

func TestApplyValidation(t *testing.T) {
	net := ring(t, 4)
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"missing link", Plan{Events: []Event{{Kind: LinkDown, Link: topology.Link{A: 0, B: 2}}}}, "does not exist"},
		{"switch out of range", Plan{Events: []Event{{Kind: SwitchDown, Switch: 9}}}, "out of range"},
		{"negative switch", Plan{Events: []Event{{Kind: SwitchDown, Switch: -1}}}, "out of range"},
		{"bad repair order", Plan{Events: []Event{{Kind: FlakyLink, Link: topology.Link{A: 0, B: 1}, At: 10, RepairAt: 5}}}, "repair"},
		{"unknown kind", Plan{Events: []Event{{Kind: Kind(42)}}}, "unknown kind"},
	}
	for _, tc := range cases {
		if _, err := Apply(net, tc.plan); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestApplyAllSwitchesDead(t *testing.T) {
	net := ring(t, 3)
	_, err := Apply(net, Plan{Name: "apocalypse", Events: []Event{
		{Kind: SwitchDown, Switch: 0},
		{Kind: SwitchDown, Switch: 1},
		{Kind: SwitchDown, Switch: 2},
	}})
	if err == nil || !strings.Contains(err.Error(), "every switch") {
		t.Fatalf("err = %v", err)
	}
}

func TestFlakyLinkWithRepairIsTransient(t *testing.T) {
	net := ring(t, 4)
	d, err := Apply(net, Plan{Events: []Event{
		{Kind: FlakyLink, Link: topology.Link{A: 0, B: 1}, At: 100, RepairAt: 500},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The static view is post-repair: the link survives.
	if !d.Net.HasLink(0, 1) {
		t.Fatal("healed flaky link removed from static view")
	}
	// Without a repair time it is permanent.
	d2, err := Apply(net, Plan{Events: []Event{
		{Kind: FlakyLink, Link: topology.Link{A: 0, B: 1}, At: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Net.HasLink(0, 1) {
		t.Fatal("unrepaired flaky link survived the static view")
	}
}

func TestRandomPlanDeterministicAndConnected(t *testing.T) {
	net := ring(t, 8)
	p1, err := RandomPlan(net, PlanSpec{LinkFailures: 1}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RandomPlan(net, PlanSpec{LinkFailures: 1}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Events) != 1 || len(p2.Events) != 1 || p1.Events[0] != p2.Events[0] {
		t.Fatalf("not deterministic: %v vs %v", p1.Events, p2.Events)
	}
	d, err := Apply(net, p1)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Net.Connected() {
		t.Fatal("random plan disconnected the net")
	}
}

func TestRandomPlanRespectsBridges(t *testing.T) {
	// On a path every link is a bridge: no link can fail.
	net := path(t, 5)
	if _, err := RandomPlan(net, PlanSpec{LinkFailures: 1}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("bridge failure accepted on a path graph")
	}
	// A ring can lose exactly one link, never two.
	rn := ring(t, 5)
	if _, err := RandomPlan(rn, PlanSpec{LinkFailures: 2}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("two ring links failed without partitioning — impossible")
	}
}

func TestRandomPlanSwitchFailures(t *testing.T) {
	net := ring(t, 8)
	p, err := RandomPlan(net, PlanSpec{SwitchFailures: 2}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Apply(net, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.DeadSwitches) != 2 {
		t.Fatalf("DeadSwitches = %v, want 2", d.DeadSwitches)
	}
	if !d.Net.Connected() {
		t.Fatal("survivors disconnected")
	}
}

// twoSwitch builds the minimal network: two switches, one link.
func twoSwitch(t *testing.T) *topology.Network {
	t.Helper()
	net, err := topology.New("pair", 2, []topology.Link{{A: 0, B: 1}}, topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestRandomPlanTwoSwitchLinkAlwaysRejected(t *testing.T) {
	// The only link of a 2-switch network is a bridge: no rng draw can
	// produce a connectivity-preserving link failure, for any seed.
	net := twoSwitch(t)
	for seed := int64(0); seed < 20; seed++ {
		_, err := RandomPlan(net, PlanSpec{LinkFailures: 1}, rand.New(rand.NewSource(seed)))
		if err == nil {
			t.Fatalf("seed %d: link failure on a 2-switch network must be rejected", seed)
		}
		if !strings.Contains(err.Error(), "cannot fail 1 links") {
			t.Fatalf("seed %d: unexpected error %v", seed, err)
		}
	}
}

func TestRandomPlanTwoSwitchSwitchFailure(t *testing.T) {
	// Failing one of two switches leaves a single connected switch — the
	// smallest survivable degradation.
	net := twoSwitch(t)
	plan, err := RandomPlan(net, PlanSpec{SwitchFailures: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Apply(net, plan)
	if err != nil {
		t.Fatal(err)
	}
	if d.Net.Switches() != 1 || len(d.DeadSwitches) != 1 {
		t.Fatalf("degraded = %d switches, %d dead", d.Net.Switches(), len(d.DeadSwitches))
	}
	// Both switches dead is never survivable.
	if _, err := RandomPlan(net, PlanSpec{SwitchFailures: 2}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("failing both switches must be rejected")
	}
}

func TestRandomPlanDisconnectionRejectedDeterministically(t *testing.T) {
	// Every link of a path graph is a bridge; the rejection must be
	// deterministic (same error for every seed), not a lucky draw.
	net := path(t, 5)
	var first string
	for seed := int64(0); seed < 20; seed++ {
		_, err := RandomPlan(net, PlanSpec{LinkFailures: 1}, rand.New(rand.NewSource(seed)))
		if err == nil {
			t.Fatalf("seed %d: bridge failure slipped through", seed)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("rejection not deterministic: %q vs %q", err.Error(), first)
		}
	}
}

func TestRandomPlanMaxSurvivableLinkFailures(t *testing.T) {
	// A ring of n switches survives exactly one link failure: after it the
	// ring is a path and every remaining link is a bridge.
	net := ring(t, 6)
	plan, err := RandomPlan(net, PlanSpec{LinkFailures: 1}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := Apply(net, plan); err != nil || d.Net.Switches() != 6 {
		t.Fatalf("single link failure must apply cleanly: %v", err)
	}
	if _, err := RandomPlan(net, PlanSpec{LinkFailures: 2}, rand.New(rand.NewSource(7))); err == nil {
		t.Fatal("two link failures on a ring must be rejected (second is always a bridge)")
	}
}
