package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commsched/internal/topology"
)

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

func TestGenerateAndAnalyze(t *testing.T) {
	out, err := capture(t, func() error {
		return run(topology.Spec{Kind: "irregular", Switches: 12, Degree: 3, Seed: 1}, "", "", true)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"diameter", "up*/down* root", "equivalent distances", "triangle violations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("analysis missing %q:\n%s", want, out)
		}
	}
}

func TestGenerateToFileAndReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.txt")
	if _, err := capture(t, func() error {
		return run(topology.Spec{Kind: "rings", Rings: 4, RingSize: 6, Bridges: 1, Seed: 1}, "", path, false)
	}); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run(topology.Spec{}, path, "", true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rings-4x6") {
		t.Fatalf("reloaded analysis missing name:\n%s", out)
	}
}

func TestWriteToStdout(t *testing.T) {
	out, err := capture(t, func() error {
		return run(topology.Spec{Kind: "ring", Switches: 5, Seed: 1}, "", "-", false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "network ring-5") || !strings.Contains(out, "link 0 1") {
		t.Fatalf("stdout topology missing:\n%s", out)
	}
}

func TestSummaryWithoutFlags(t *testing.T) {
	out, err := capture(t, func() error {
		return run(topology.Spec{Kind: "mesh", Rows: 3, Cols: 3, Seed: 1}, "", "", false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mesh-3x3") {
		t.Fatalf("summary missing:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	if _, err := capture(t, func() error {
		return run(topology.Spec{Kind: "bogus", Switches: 8, Degree: 3, Seed: 1}, "", "", false)
	}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := capture(t, func() error {
		return run(topology.Spec{}, "/does/not/exist", "", true)
	}); err == nil {
		t.Fatal("missing input file accepted")
	}
}
