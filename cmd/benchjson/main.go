// Command benchjson converts `go test -bench` text output into a stable
// JSON document, compares two such documents, and runs the repository's
// benchmark gate:
//
//	go test -bench=. -benchmem -run '^$' -count 10 . | benchjson -o new.json
//	benchjson compare old.json new.json
//	benchjson gate HEAD          # what `make bench-gate BASE=HEAD` runs
//
// Every benchmark line is parsed into its name, GOMAXPROCS suffix (see
// splitProcs), iteration count, and the full set of value/unit metric
// pairs —
// including the custom b.ReportMetric quantities the repro benchmarks
// emit (throughput gains, correlations, Cc), not just ns/op. A
// non-finite value (NaN, ±Inf) has no JSON encoding, so its pair is
// dropped and counted instead of failing the whole report.
//
// compare groups each report's lines per benchmark, one sample per
// `-count` repetition, and fails only when the new median ns/op or
// allocs/op is worse than the old by more than a minimum effect and a
// one-sided Mann-Whitney U test finds the slowdown significant (see
// compare.go).
//
// gate builds the layer benchmarks of a base revision (checked out in a
// git worktree) and of the working tree, runs both sides alternately on
// this machine, and compares them the same way (see gate.go for the
// benchmark list, the round count and the thresholds).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Pkg is the import path from the preceding "pkg:" context line.
	Pkg string `json:"pkg,omitempty"`
	// Name is the benchmark name without the -GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran with (0 if unsuffixed).
	Procs int `json:"procs,omitempty"`
	// Iterations is b.N.
	Iterations int `json:"iterations"`
	// Metrics maps unit → value for every pair on the line
	// (ns/op, B/op, allocs/op, and custom ReportMetric units).
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the whole run. A benchmark run with -count N appears N times.
type Report struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Dropped counts the value/unit pairs left out because their value
	// was NaN or infinite.
	Dropped int `json:"dropped,omitempty"`
}

func main() {
	if len(os.Args) > 1 {
		var run func([]string, io.Writer) (int, error)
		switch os.Args[1] {
		case "compare":
			run = runCompare
		case "gate":
			run = runGate
		}
		if run != nil {
			code, err := run(os.Args[2:], os.Stdout)
			if err != nil {
				fatal(err)
			}
			os.Exit(code)
		}
	}
	out := flag.String("o", "", "write JSON here instead of stdout")
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	rep, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if rep.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: dropped %d non-finite metric value(s)\n", rep.Dropped)
	}
	if err := writeJSON(*out, rep); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// writeJSON writes v as indented JSON with a trailing newline to path,
// or to standard output when path is empty.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// parse reads `go test -bench` output. Context lines (goos/goarch/cpu/
// pkg) set fields for subsequent benchmarks; anything unrecognized
// (PASS, ok, test logs) is skipped.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	pkg := ""
	block := 0 // index of the first benchmark since the last pkg: line
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			splitProcs(rep.Benchmarks[block:])
			block = len(rep.Benchmarks)
		case strings.HasPrefix(line, "Benchmark"):
			b, dropped, ok := parseBenchLine(line)
			if ok {
				b.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
				rep.Dropped += dropped
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	splitProcs(rep.Benchmarks[block:])
	return rep, nil
}

// splitProcs moves the -N GOMAXPROCS suffix off the names of one pkg:
// block's benchmarks into Procs. go test prints that suffix only when
// GOMAXPROCS is not 1, and a sub-benchmark name can end in -N too, so a
// trailing -N counts only when every line of the block has one, or when
// the name without it also appears in the block (a -cpu list with 1).
func splitProcs(bs []Benchmark) {
	names := make(map[string]bool, len(bs))
	all := true
	for _, b := range bs {
		names[b.Name] = true
		if _, _, ok := cutProcs(b.Name); !ok {
			all = false
		}
	}
	for k, b := range bs {
		if name, procs, ok := cutProcs(b.Name); ok && (all || names[name]) {
			bs[k].Name, bs[k].Procs = name, procs
		}
	}
}

// cutProcs splits a trailing -N off name; only a pure-digit suffix
// counts, since benchmark names can contain dashes.
func cutProcs(name string) (base string, procs int, ok bool) {
	i := strings.LastIndex(name, "-")
	if i <= 0 {
		return name, 0, false
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 0, false
	}
	return name[:i], procs, true
}

// parseBenchLine parses one result line, keeping the name whole:
//
//	BenchmarkName-8   	     100	  11843 ns/op	  0.8021 Cc	  16 B/op
//
// It returns the number of non-finite pairs it left out, and ok=false
// for lines that merely start with "Benchmark" but are not results
// (e.g. a benchmark's own log output).
func parseBenchLine(line string) (b Benchmark, dropped int, ok bool) {
	fields := strings.Fields(line)
	// name, iterations, then value/unit pairs.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, 0, false
	}
	iters, err := strconv.Atoi(fields[1])
	if err != nil {
		return Benchmark{}, 0, false
	}
	b = Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, 0, false
		}
		if math.IsNaN(val) || math.IsInf(val, 0) {
			dropped++
			continue
		}
		b.Metrics[fields[i+1]] = val
	}
	return b, dropped, true
}
