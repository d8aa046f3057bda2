package main

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"commsched/internal/runctl"
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

func TestParseSizes(t *testing.T) {
	sizes, err := parseSizes("11, 17,20")
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 11 || sizes[2] != 20 {
		t.Fatalf("sizes = %v", sizes)
	}
	for _, bad := range []string{"", "a,b", "0", "-3", "4,,5"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) accepted", bad)
		}
	}
}

func TestRunSchedulesProcesses(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), 8, 3, 77, "6,10", 2, 1, false, runctl.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scheduled objective", "application 0", "application 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithSimulation(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), 8, 3, 77, "8,8", 1, 1, true, runctl.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "simulated throughput") {
		t.Fatalf("simulation summary missing:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := capture(t, func() error {
		return run(context.Background(), 8, 3, 77, "bogus", 2, 1, false, runctl.Config{})
	}); err == nil {
		t.Fatal("bad cluster list accepted")
	}
	if _, err := capture(t, func() error {
		return run(context.Background(), 8, 3, 77, "100,100", 1, 1, false, runctl.Config{}) // over capacity
	}); err == nil {
		t.Fatal("over-capacity process count accepted")
	}
	if _, err := capture(t, func() error {
		return run(context.Background(), 8, 3, 77, "4,4", 0, 1, false, runctl.Config{}) // zero slots
	}); err == nil {
		t.Fatal("zero slots accepted")
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := capture(t, func() error {
		return run(ctx, 8, 3, 77, "6,10", 2, 1, false, runctl.Config{})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
