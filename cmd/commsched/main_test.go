package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commsched/internal/runctl"
	"commsched/internal/topology"
)

// capture runs f with stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- b.String()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out, ferr
}

func TestRunIrregularTabu(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), topology.Spec{Kind: "irregular", Switches: 12, Degree: 3, Seed: 1}, "", 4, "", 42, "tabu", "resistance", 2, false, runctl.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scheduled partition (tabu)", "Cc =", "random R1", "random R2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRingsTopology(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), topology.Spec{Kind: "rings", Rings: 4, RingSize: 6, Bridges: 1, Seed: 1}, "", 4, "", 42, "greedy", "resistance", 0, false, runctl.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rings-4x6") {
		t.Fatalf("output missing topology name:\n%s", out)
	}
}

func TestRunHopMetricAndTableDump(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), topology.Spec{Kind: "ring", Switches: 6, Seed: 1}, "", 2, "", 42, "tabu", "hops", 0, true, runctl.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "table of equivalent distances") {
		t.Fatalf("table dump missing:\n%s", out)
	}
}

func TestRunMeshTorusHypercube(t *testing.T) {
	cases := []struct {
		topo            string
		rows, cols, dim int
		clusters        int
	}{
		{"mesh", 4, 4, 0, 4},
		{"torus", 4, 4, 0, 4},
		{"hypercube", 0, 0, 4, 4},
	}
	for _, c := range cases {
		if _, err := capture(t, func() error {
			return run(context.Background(), topology.Spec{Kind: c.topo, Rows: c.rows, Cols: c.cols, Dim: c.dim, Seed: 1}, "", c.clusters, "", 1, "greedy", "resistance", 0, false, runctl.Config{})
		}); err != nil {
			t.Fatalf("%s: %v", c.topo, err)
		}
	}
}

func TestRunFileTopology(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.txt")
	content := "network demo switches=4 ports=8 hosts=4\nlink 0 1\nlink 1 2\nlink 2 3\nlink 0 3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run(context.Background(), topology.Spec{Kind: "file", Seed: 1}, path, 2, "", 1, "exhaustive", "resistance", 0, false, runctl.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "network demo") {
		t.Fatalf("file topology not loaded:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []func() error{
		func() error {
			return run(context.Background(), topology.Spec{Kind: "unknown-topo", Switches: 8, Degree: 3, Seed: 1}, "", 4, "", 1, "tabu", "resistance", 0, false, runctl.Config{})
		},
		func() error {
			return run(context.Background(), topology.Spec{Kind: "irregular", Switches: 12, Degree: 3, Seed: 1}, "", 4, "", 1, "no-such-heuristic", "resistance", 0, false, runctl.Config{})
		},
		func() error {
			return run(context.Background(), topology.Spec{Kind: "irregular", Switches: 12, Degree: 3, Seed: 1}, "", 4, "", 1, "tabu", "no-such-metric", 0, false, runctl.Config{})
		},
		func() error {
			return run(context.Background(), topology.Spec{Kind: "file", Seed: 1}, "", 4, "", 1, "tabu", "resistance", 0, false, runctl.Config{})
		},
		func() error {
			return run(context.Background(), topology.Spec{Kind: "file", Seed: 1}, "/does/not/exist", 4, "", 1, "tabu", "resistance", 0, false, runctl.Config{})
		},
		func() error { // indivisible clusters
			return run(context.Background(), topology.Spec{Kind: "irregular", Switches: 10, Degree: 3, Seed: 1}, "", 4, "", 1, "tabu", "resistance", 0, false, runctl.Config{})
		},
	}
	for i, f := range cases {
		if _, err := capture(t, f); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRunWeightedScheduling(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), topology.Spec{Kind: "irregular", Switches: 12, Degree: 3, Seed: 1}, "", 4, "50,1,1,1", 42, "tabu", "resistance", 0, false, runctl.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "weighted-tabu") {
		t.Fatalf("weighted scheduling not used:\n%s", out)
	}
}

func TestRunWeightedErrors(t *testing.T) {
	if _, err := capture(t, func() error {
		return run(context.Background(), topology.Spec{Kind: "irregular", Switches: 12, Degree: 3, Seed: 1}, "", 4, "a,b", 42, "tabu", "resistance", 0, false, runctl.Config{})
	}); err == nil {
		t.Fatal("bad weight list accepted")
	}
	if _, err := capture(t, func() error {
		// 12 switches cannot split into 5 weighted clusters.
		return run(context.Background(), topology.Spec{Kind: "irregular", Switches: 12, Degree: 3, Seed: 1}, "", 4, "1,1,1,1,1", 42, "tabu", "resistance", 0, false, runctl.Config{})
	}); err == nil {
		t.Fatal("indivisible weighted split accepted")
	}
}

func TestParseWeights(t *testing.T) {
	ws, err := parseWeights("50, 1,1, 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 || ws[0] != 50 {
		t.Fatalf("ws = %v", ws)
	}
	for _, bad := range []string{"", "x", "0", "-1", "1,,2"} {
		if _, err := parseWeights(bad); err == nil {
			t.Errorf("parseWeights(%q) accepted", bad)
		}
	}
}
