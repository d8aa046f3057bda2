package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: commsched
cpu: AMD EPYC 7B13
BenchmarkFig1TabuTrace-8   	     100	    118430 ns/op	   0.8021 Cc	      16 B/op	       2 allocs/op
BenchmarkSimulatorRun-8    	       2	 512000000 ns/op
BenchmarkSub/case-a-8      	      10	      1000 ns/op
Benchmark log line that is not a result
PASS
ok  	commsched	1.234s
pkg: commsched/internal/obs
BenchmarkDisabledEvent     	1000000000	         0.5032 ns/op
ok  	commsched/internal/obs	0.700s
`

func TestParseSample(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoOS != "linux" || rep.GoArch != "amd64" || rep.CPU != "AMD EPYC 7B13" {
		t.Fatalf("context lines lost: %+v", rep)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}

	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkFig1TabuTrace" || b.Procs != 8 || b.Iterations != 100 {
		t.Fatalf("first benchmark header wrong: %+v", b)
	}
	if b.Pkg != "commsched" {
		t.Fatalf("pkg context not attached: %q", b.Pkg)
	}
	want := map[string]float64{"ns/op": 118430, "Cc": 0.8021, "B/op": 16, "allocs/op": 2}
	for unit, v := range want {
		if b.Metrics[unit] != v {
			t.Fatalf("metric %s = %v, want %v (all: %v)", unit, b.Metrics[unit], v, b.Metrics)
		}
	}

	// Sub-benchmark: only a pure-digit suffix is a GOMAXPROCS marker.
	sub := rep.Benchmarks[2]
	if sub.Name != "BenchmarkSub/case-a" || sub.Procs != 8 {
		t.Fatalf("sub-benchmark name split wrong: %+v", sub)
	}

	// Second package's context replaces the first.
	obs := rep.Benchmarks[3]
	if obs.Pkg != "commsched/internal/obs" || obs.Procs != 0 {
		t.Fatalf("second package context wrong: %+v", obs)
	}
	if obs.Metrics["ns/op"] != 0.5032 {
		t.Fatalf("fractional ns/op lost: %v", obs.Metrics)
	}
}

// TestParseProcsSuffixPerBlock: go test prints no -N suffix at
// GOMAXPROCS=1, so a sub-benchmark's own trailing -N stays in its name
// unless the whole pkg: block is suffixed or the bare name also ran (a
// -cpu list with 1).
func TestParseProcsSuffixPerBlock(t *testing.T) {
	in := `pkg: one/cpu
BenchmarkX/size-4   10   1000 ns/op
BenchmarkY          10   2000 ns/op
pkg: cpu/list
BenchmarkX/size-4     10   1000 ns/op
BenchmarkX/size-4-2   10    600 ns/op
BenchmarkY            10   2000 ns/op
BenchmarkY-2          10   1100 ns/op
pkg: two/cpus
BenchmarkX/size-4-2   10    600 ns/op
BenchmarkY-2          10   1100 ns/op
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	type np struct {
		name  string
		procs int
	}
	want := []np{
		{"BenchmarkX/size-4", 0}, {"BenchmarkY", 0},
		{"BenchmarkX/size-4", 0}, {"BenchmarkX/size-4", 2}, {"BenchmarkY", 0}, {"BenchmarkY", 2},
		{"BenchmarkX/size-4", 2}, {"BenchmarkY", 2},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(rep.Benchmarks), len(want), rep.Benchmarks)
	}
	for k, b := range rep.Benchmarks {
		if got := (np{b.Name, b.Procs}); got != want[k] {
			t.Errorf("line %d (%s): name %q procs %d, want %q procs %d", k, b.Pkg, got.name, got.procs, want[k].name, want[k].procs)
		}
	}
}

func TestParseSkipsNonResultLines(t *testing.T) {
	rep, err := parse(strings.NewReader("Benchmark: starting\nnonsense\nok pkg 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("non-result lines parsed as benchmarks: %+v", rep.Benchmarks)
	}
}

// TestParseDropsNonFinite: a NaN or infinite metric is dropped and
// counted, and the rest of its line and of the report survive.
func TestParseDropsNonFinite(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkX-2 10 100 ns/op NaN r-low\nBenchmarkY-2 10 +Inf ns/op 3 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 2 || len(rep.Benchmarks) != 2 {
		t.Fatalf("dropped %d of %d benchmarks, want 2 of 2: %+v", rep.Dropped, len(rep.Benchmarks), rep)
	}
	x, y := rep.Benchmarks[0].Metrics, rep.Benchmarks[1].Metrics
	if len(x) != 1 || x["ns/op"] != 100 || len(y) != 1 || y["allocs/op"] != 3 {
		t.Fatalf("finite metrics lost: %v, %v", x, y)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report does not encode: %v", err)
	}
}

// FuzzParse: parse never panics, and every report it returns encodes
// as JSON. The committed corpus holds real -count output with custom
// metrics, a NaN metric, a torn last line and a sub-benchmark name
// ending in -N.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Fuzz(func(t *testing.T, in string) {
		rep, err := parse(strings.NewReader(in))
		if err != nil {
			return // a line past the scanner's limit
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("report of %q does not encode: %v", in, err)
		}
	})
}
