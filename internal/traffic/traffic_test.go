package traffic

import (
	"math/rand"
	"testing"

	"commsched/internal/mapping"
	"commsched/internal/topology"
)

func processMap(t *testing.T) *mapping.ProcessMap {
	t.Helper()
	net, err := topology.RandomIrregular(8, 3, rand.New(rand.NewSource(1)), topology.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := mapping.Balanced(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := mapping.NewProcessMap(net, p)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func TestIntraClusterStaysInCluster(t *testing.T) {
	pm := processMap(t)
	p, err := NewIntraCluster(pm)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		src := rng.Intn(pm.Hosts())
		dst := p.Destination(src, rng)
		if dst == src {
			t.Fatal("destination equals source")
		}
		if pm.HostCluster(dst) != pm.HostCluster(src) {
			t.Fatalf("intra-cluster pattern crossed clusters: %d→%d", src, dst)
		}
	}
}

func TestIntraClusterCoversAllPeers(t *testing.T) {
	pm := processMap(t)
	p, err := NewIntraCluster(pm)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	seen := map[int]bool{}
	for trial := 0; trial < 5000; trial++ {
		seen[p.Destination(0, rng)] = true
	}
	peers := pm.Peers(0)
	if len(seen) != len(peers) {
		t.Fatalf("saw %d distinct destinations, want %d", len(seen), len(peers))
	}
}

func TestIntraClusterRejectsSingletonCluster(t *testing.T) {
	net, err := topology.RandomIrregular(8, 3, rand.New(rand.NewSource(1)), topology.Config{HostsPerSwitch: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := mapping.Balanced(8, 8) // 1 switch => 1 host per cluster
	if err != nil {
		t.Fatal(err)
	}
	pm, err := mapping.NewProcessMap(net, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIntraCluster(pm); err == nil {
		t.Fatal("singleton clusters accepted")
	}
}

func TestUniform(t *testing.T) {
	u, err := NewUniform(10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	seen := map[int]bool{}
	for trial := 0; trial < 3000; trial++ {
		d := u.Destination(3, rng)
		if d == 3 {
			t.Fatal("uniform returned the source")
		}
		seen[d] = true
	}
	if len(seen) != 9 {
		t.Fatalf("uniform covered %d destinations, want 9", len(seen))
	}
	if _, err := NewUniform(1); err == nil {
		t.Fatal("degenerate uniform accepted")
	}
}

func TestMixed(t *testing.T) {
	pm := processMap(t)
	intra, err := NewIntraCluster(pm)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := NewUniform(pm.Hosts())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMixed(intra, uni, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	inCluster := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		src := rng.Intn(pm.Hosts())
		if pm.HostCluster(m.Destination(src, rng)) == pm.HostCluster(src) {
			inCluster++
		}
	}
	frac := float64(inCluster) / trials
	// 0.8 + 0.2 * P(uniform lands in own cluster ≈ 8/31) ≈ 0.85
	if frac < 0.78 || frac > 0.92 {
		t.Fatalf("mixed intra fraction = %v, want ≈ 0.85", frac)
	}
	if _, err := NewMixed(intra, uni, -0.1); err == nil {
		t.Fatal("negative fraction accepted")
	}
}

func TestNames(t *testing.T) {
	pm := processMap(t)
	intra, _ := NewIntraCluster(pm)
	uni, _ := NewUniform(4)
	mix, _ := NewMixed(intra, uni, 0.5)
	for _, p := range []Pattern{intra, uni, mix} {
		if p.Name() == "" {
			t.Fatal("empty pattern name")
		}
	}
}
