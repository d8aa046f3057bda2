package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, rep Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// samples returns one -count sample of benchmark name per ns/op value,
// each with the given allocs/op.
func samples(name string, allocs float64, ns ...float64) []Benchmark {
	var bs []Benchmark
	for _, v := range ns {
		bs = append(bs, Benchmark{
			Pkg: "example.com/m", Name: name, Iterations: 10,
			Metrics: map[string]float64{"ns/op": v, "allocs/op": allocs},
		})
	}
	return bs
}

// ramp returns the ten values from, from+step, …, from+9·step.
func ramp(from, step float64) []float64 {
	v := make([]float64, 10)
	for i := range v {
		v[i] = from + float64(i)*step
	}
	return v
}

// runCompareOn writes both reports and runs `benchjson compare` on them.
func runCompareOn(t *testing.T, oldBs, newBs []Benchmark) (int, string) {
	t.Helper()
	dir := t.TempDir()
	oldF := writeReport(t, dir, "old.json", Report{Benchmarks: oldBs})
	newF := writeReport(t, dir, "new.json", Report{Benchmarks: newBs})
	var out strings.Builder
	code, err := runCompare([]string{oldF, newF}, &out)
	if err != nil {
		t.Fatal(err)
	}
	return code, out.String()
}

func TestCompareNoRegression(t *testing.T) {
	code, out := runCompareOn(t, samples("BenchmarkA", 50, ramp(1000, 1)...), samples("BenchmarkA", 10, ramp(500, 1)...))
	if code != 0 {
		t.Fatalf("exit code %d for an improvement, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "no regressions") {
		t.Fatalf("summary missing: %s", out)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	code, out := runCompareOn(t, samples("BenchmarkA", 50, ramp(1000, 1)...), samples("BenchmarkA", 50, ramp(1500, 1)...))
	if code == 0 {
		t.Fatalf("exit code 0 for a separated 50%% ns/op slowdown\n%s", out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "m.BenchmarkA") {
		t.Fatalf("regression not named: %s", out)
	}
}

// TestCompareWithinThresholdPasses: a slowdown below the minimum effect
// passes however significant it is.
func TestCompareWithinThresholdPasses(t *testing.T) {
	code, out := runCompareOn(t, samples("BenchmarkA", 50, ramp(1000, 1)...), samples("BenchmarkA", 50, ramp(1040, 1)...))
	if code != 0 {
		t.Fatalf("exit code %d for a 4%% slowdown under the %.0f%% minimum effect\n%s", code, minEffect*100, out)
	}
}

// TestCompareInsignificantSlowdownPasses: a median 18 % worse fails
// nothing when the samples overlap too much for the test to call it.
func TestCompareInsignificantSlowdownPasses(t *testing.T) {
	code, out := runCompareOn(t, samples("BenchmarkA", 5, ramp(100, 100)...), samples("BenchmarkA", 5, ramp(200, 100)...))
	if code != 0 {
		t.Fatalf("exit code %d for overlapping samples\n%s", code, out)
	}
}

func TestCompareZeroToNonzeroAllocsRegresses(t *testing.T) {
	code, out := runCompareOn(t, samples("BenchmarkA", 0, ramp(1000, 1)...), samples("BenchmarkA", 1, ramp(1000, 1)...))
	if code == 0 {
		t.Fatalf("exit code 0 when allocs went 0 -> 1\n%s", out)
	}
	if !strings.Contains(out, "+inf") {
		t.Fatalf("infinite ratio not rendered: %s", out)
	}
}

// TestCompareIdenticalSamplesNeverFail: the same samples on both sides,
// constant or spread, never regress.
func TestCompareIdenticalSamplesNeverFail(t *testing.T) {
	for _, ns := range [][]float64{ramp(1000, 0), ramp(1000, 37), {5, 1, 9, 9, 2, 7, 7, 7, 3, 100}} {
		code, out := runCompareOn(t, samples("BenchmarkA", 3, ns...), samples("BenchmarkA", 3, ns...))
		if code != 0 {
			t.Fatalf("identical samples %v failed the gate\n%s", ns, out)
		}
	}
}

func TestCompareUnmatchedBenchmarksIgnored(t *testing.T) {
	oldBs := append(samples("BenchmarkA", 5, ramp(1000, 1)...), samples("BenchmarkRetired", 5, 1)...)
	newBs := append(samples("BenchmarkA", 5, ramp(900, 1)...), samples("BenchmarkBrandNew", 1e6, 1e9)...)
	code, out := runCompareOn(t, oldBs, newBs)
	if code != 0 {
		t.Fatalf("a benchmark present on one side only must not fail the gate\n%s", out)
	}
	if !strings.Contains(out, "m.BenchmarkBrandNew") || !strings.Contains(out, "(new") {
		t.Fatalf("new-only benchmark not reported: %s", out)
	}
	if !strings.Contains(out, "m.BenchmarkRetired") || !strings.Contains(out, "(gone") {
		t.Fatalf("gone benchmark not reported: %s", out)
	}
}

func TestCompareNoOverlapErrors(t *testing.T) {
	dir := t.TempDir()
	oldF := writeReport(t, dir, "old.json", Report{Benchmarks: samples("BenchmarkA", 1, 1)})
	newF := writeReport(t, dir, "new.json", Report{Benchmarks: samples("BenchmarkB", 1, 1)})
	var out strings.Builder
	if _, err := runCompare([]string{oldF, newF}, &out); err == nil {
		t.Fatal("disjoint reports must error, not silently pass")
	}
}

func TestCompareBadArgs(t *testing.T) {
	var out strings.Builder
	if _, err := runCompare([]string{"only-one.json"}, &out); err == nil {
		t.Fatal("one file accepted")
	}
	if _, err := runCompare([]string{"nope1.json", "nope2.json"}, &out); err == nil {
		t.Fatal("missing files accepted")
	}
	if _, err := runCompare([]string{"-threshold", "0.1", "a.json", "b.json"}, &out); err == nil {
		t.Fatal("a flag accepted")
	}
}

// TestCompareGroupsCountSamples: each line of `go test -count` output is
// one sample of its benchmark, and the summary covers them all.
func TestCompareGroupsCountSamples(t *testing.T) {
	const out = `pkg: example.com/m
BenchmarkA-2   	 100	  30 ns/op	 0 allocs/op
BenchmarkB/x-2 	 100	   7 ns/op	 1 allocs/op
BenchmarkA-2   	 100	  10 ns/op	 0 allocs/op
BenchmarkB/x-2 	 100	   7 ns/op	 1 allocs/op
BenchmarkA-2   	 100	  20 ns/op	 0 allocs/op
BenchmarkB/x-2 	 100	   7 ns/op	 1 allocs/op
BenchmarkA-2   	 100	  40 ns/op	 0 allocs/op
`
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	c, err := compare(rep, rep)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name, metric string
		s            Summary
	}{
		{"BenchmarkA", "ns/op", Summary{N: 4, Median: 25, Q1: 17.5, Q3: 32.5}},
		{"BenchmarkA", "allocs/op", Summary{N: 4}},
		{"BenchmarkB/x", "ns/op", Summary{N: 3, Median: 7, Q1: 7, Q3: 7}},
		{"BenchmarkB/x", "allocs/op", Summary{N: 3, Median: 1, Q1: 1, Q3: 1}},
	}
	if len(c.Rows) != len(want) {
		t.Fatalf("%d rows, want %d: %+v", len(c.Rows), len(want), c.Rows)
	}
	for i, w := range want {
		r := c.Rows[i]
		if r.Name != w.name || r.Metric != w.metric || r.Base != w.s || r.Change != w.s {
			t.Fatalf("row %d = %+v, want %s %s %+v", i, r, w.name, w.metric, w.s)
		}
		if r.Regressed {
			t.Fatalf("row %d regressed against itself: %+v", i, r)
		}
	}
}

// TestMannWhitneyExact pins the exact one-sided p-values.
func TestMannWhitneyExact(t *testing.T) {
	lo, hi := ramp(100, 1), ramp(200, 1)
	// Fully separated 10 vs 10: only one of the C(20,10) = 184756 splits
	// puts every high value on the change side.
	if p, want := mannWhitneyP(lo, hi), 1.0/184756; math.Abs(p-want) > 1e-15 {
		t.Fatalf("separated p = %g, want 1/C(20,10) = %g", p, want)
	}
	if p := mannWhitneyP(hi, lo); p != 1 {
		t.Fatalf("p for a separated improvement = %g, want 1", p)
	}
	// Ties: ranks 1, 2, 3.5, 3.5, 5, 6; the change's {3.5, 5, 6} is the
	// largest sum, reached by 2 of the C(6,3) = 20 splits.
	if p := mannWhitneyP([]float64{1, 2, 3}, []float64{3, 4, 5}); math.Abs(p-0.1) > 1e-15 {
		t.Fatalf("tied p = %g, want 0.1", p)
	}
	if p := mannWhitneyP(ramp(7, 0), ramp(7, 0)); p != 1 {
		t.Fatalf("all-equal p = %g, want 1", p)
	}
	if p := mannWhitneyP(nil, lo); p != 1 {
		t.Fatalf("empty-side p = %g, want 1", p)
	}
}
