package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// The gate's fixed parameters, all in one place.
const (
	// rounds is how many samples each side gets of every gated
	// benchmark. Rounds alternate which side runs first.
	rounds = 10
	// benchtime is each run's -test.benchtime: real iteration counts
	// (not 1x), short enough that ten rounds of both sides take a few
	// minutes on two cores.
	benchtime = "200ms"
	// rootBenchtime is the root package's -test.benchtime. A simulator
	// row's 200ms sample is only a few runs, and at 200ms one A/A run in
	// three flagged two root-package rows on identical trees.
	rootBenchtime = "1s"
	// alpha is the one-sided Mann-Whitney significance level.
	alpha = 0.01
	// minEffect is the smallest relative growth of a median ns/op, B/op
	// or allocs/op that can fail the gate.
	minEffect = 0.10
	// gateDir holds the base worktree and the test binaries while the
	// gate runs, and both sides' reports and the record after; it is
	// gitignored.
	gateDir = ".bench_gate"
)

// gated lists the layer benchmarks the gate runs: a package directory
// relative to the module root and its -test.bench pattern. Figure-scale
// timing belongs to perfbench, and the paper's metrics to `make bench`.
var gated = []struct{ dir, bench string }{
	{".", "^(BenchmarkAblationDeltaVsFull|BenchmarkSimulatorRun)$"},
	{"internal/routing", "^BenchmarkNewUpDown$"},
	{"internal/distance", "^BenchmarkCompute$"},
	{"internal/core", "^(BenchmarkNewSystem|BenchmarkDegrade)$"},
	{"internal/search", "^BenchmarkTabuRestart$"},
	{"internal/par", "^BenchmarkForEach$"},
	{"internal/service", "^BenchmarkEvaluate$"},
	{"internal/obs", "^(BenchmarkDisabled.*|BenchmarkMemoryEvent)$"},
	{"internal/heft", "^BenchmarkScheduleDAG$"},
	{"internal/telemetry", "^BenchmarkWritePrometheus$"},
	{"internal/runstate", "^BenchmarkRecord$"},
	{"internal/lease", "^(BenchmarkClaimDone|BenchmarkRenew|BenchmarkPoolLoop)$"},
}

// gateRecord is what the gate writes to gateDir/gate.json.
type gateRecord struct {
	Base          string  `json:"base"`
	Change        string  `json:"change"`
	Rounds        int     `json:"rounds"`
	Benchtime     string  `json:"benchtime"`
	RootBenchtime string  `json:"root_benchtime"`
	Alpha         float64 `json:"alpha"`
	MinEffect     float64 `json:"min_effect"`
	CPU           string  `json:"cpu,omitempty"`
	*Comparison
}

// side is one of the two trees under comparison.
type side struct {
	name, root string
	out        bytes.Buffer
}

// runGate implements `benchjson gate <base>`: it checks base out in a git
// worktree under gateDir, compiles each side's test binaries once, runs
// the gated benchmarks of base and of the working tree alternately for
// rounds rounds, and compares the two sides like runCompare. The exit
// code is 1 when a gated metric regressed.
func runGate(args []string, w io.Writer) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("gate needs exactly one argument: the base revision")
	}
	start := time.Now()
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return 0, err
	}
	base, err := git(root, "rev-parse", "--verify", args[0]+"^{commit}")
	if err != nil {
		return 0, err
	}
	change, err := git(root, "describe", "--always", "--dirty")
	if err != nil {
		return 0, err
	}
	dir := filepath.Join(root, gateDir)
	tree := filepath.Join(dir, "base")
	// Clear what an interrupted run left behind, worktree included.
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	if _, err := git(root, "worktree", "prune"); err != nil {
		return 0, err
	}
	if _, err := git(root, "worktree", "add", "--detach", tree, base); err != nil {
		return 0, err
	}
	defer func() {
		// A failure here leaves files the next run clears first.
		if _, err := git(root, "worktree", "remove", "--force", tree); err != nil {
			fmt.Fprintln(os.Stderr, "bench-gate:", err)
		}
		if err := os.RemoveAll(filepath.Join(dir, "bin")); err != nil {
			fmt.Fprintln(os.Stderr, "bench-gate:", err)
		}
	}()

	sides := []*side{{name: "base", root: tree}, {name: "change", root: root}}
	for _, s := range sides {
		if err := s.build(dir); err != nil {
			return 0, err
		}
	}
	for r := 0; r < rounds; r++ {
		fmt.Fprintf(os.Stderr, "bench-gate: round %d/%d\n", r+1, rounds)
		for i := range gated {
			for k := range sides {
				if err := sides[(k+r)%2].run(dir, i); err != nil {
					return 0, err
				}
			}
		}
	}

	reps := make([]*Report, len(sides))
	for k, s := range sides {
		if reps[k], err = parse(&s.out); err != nil {
			return 0, err
		}
		if err := writeJSON(filepath.Join(dir, s.name+".json"), reps[k]); err != nil {
			return 0, err
		}
	}
	c, err := compare(reps[0], reps[1])
	if err != nil {
		return 0, err
	}
	c.print(w)
	rec := gateRecord{Base: base, Change: change, Rounds: rounds, Benchtime: benchtime,
		RootBenchtime: rootBenchtime, Alpha: alpha, MinEffect: minEffect, CPU: reps[1].CPU, Comparison: c}
	if err := writeJSON(filepath.Join(dir, "gate.json"), rec); err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "base %s vs change %s: %d rounds in %s; record in %s\n",
		base[:12], change, rounds, time.Since(start).Round(time.Second), filepath.Join(gateDir, "gate.json"))
	if c.Regressions > 0 {
		return 1, nil
	}
	return 0, nil
}

// binary is where the test binary of gated[i] for side s lives.
func (s *side) binary(dir string, i int) string {
	return filepath.Join(dir, "bin", fmt.Sprintf("%s-%d.test", s.name, i))
}

// build compiles the side's test binary of every gated package it has.
func (s *side) build(dir string) error {
	for i, g := range gated {
		if _, err := os.Stat(filepath.Join(s.root, g.dir)); err != nil {
			continue // a package the side lacks: its benchmarks show as new or gone
		}
		cmd := exec.Command("go", "test", "-c", "-o", s.binary(dir, i), "./"+g.dir)
		cmd.Dir = s.root
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: go test -c ./%s: %w", s.name, g.dir, err)
		}
	}
	return nil
}

// run appends one sample of gated[i]'s benchmarks to the side's output.
// Like `go test`, it runs the binary in the package directory.
func (s *side) run(dir string, i int) error {
	bin := s.binary(dir, i)
	if _, err := os.Stat(bin); err != nil {
		return nil // not built: no such package, or no test files
	}
	bt := benchtime
	if gated[i].dir == "." {
		bt = rootBenchtime
	}
	cmd := exec.Command(bin, "-test.run=^$", "-test.bench="+gated[i].bench,
		"-test.benchmem", "-test.benchtime="+bt)
	cmd.Dir = filepath.Join(s.root, gated[i].dir)
	cmd.Stdout, cmd.Stderr = &s.out, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: benchmarks of ./%s: %w", s.name, gated[i].dir, err)
	}
	return nil
}

// git runs a git command in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
