// Command perfbench is commsched's end-to-end benchmark. It drives one
// named workload from outside the program, through the library's public
// entry points (experiments/core calls), the service's HTTP API, or the
// paperfigs CLI; checks every output against pinned reference values; and
// prints the metrics as one JSON line:
//
//	bash perfbench/run.sh --workload figure-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics; with --trace 1 the
// benchmark records a span around every call into a layer and the line
// holds the per-layer metrics instead. Earlier lines are a human-readable
// report. The exit code is nonzero when any output check fails.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

//go:embed reference.json
var referenceJSON []byte

// setupReps is how many times each run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// endToEnd lists the metrics a --trace 0 run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"work_per_cpu_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// perLayer lists the metrics a --trace 1 run reports, with their units.
// A layer the workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"core.simulate_sweep_s", "s"},
	{"simnet.host_ns_per_cycle", "ns"},
	{"simnet.cycles", "count"},
	{"simnet.delivered_flits", "count"},
	{"par.retried", "count"},
	{"par.salvaged", "count"},
	{"core.characterize_ms_p50", "ms"},
	{"core.characterize_share", "ratio"},
	{"core.schedule_ms_p50", "ms"},
	{"core.schedule_share", "ratio"},
	{"search.evaluations", "count"},
	{"search.evals_per_s", "1/s"},
	{"core.degrade_ms_p50", "ms"},
	{"distance.recomputed_ratio", "ratio"},
	{"core.repair_ms_p50", "ms"},
	{"core.repair_moved", "count"},
	{"service.submit_ms_p50", "ms"},
	{"service.submit_ms_p99", "ms"},
	{"service.store_write_ms_p50", "ms"},
	{"service.store_write_ms_p99", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p99", "ms"},
	{"service.runner_ms_p50", "ms"},
	{"service.eval_batches", "count"},
	{"service.eval_coalesce_ratio", "ratio"},
	{"service.rejected", "count"},
	{"service.max_rate_per_s", "1/s"},
	{"telemetry.scrape_ms_p50", "ms"},
	{"telemetry.scrape_bytes", "bytes"},
	{"lease.acquired", "count"},
	{"lease.stolen", "count"},
	{"lease.replayed", "count"},
	{"lease.renewals", "count"},
	{"lease.conflicts", "count"},
	{"lease.useful_ratio", "ratio"},
	{"lease.tail_s", "s"},
	{"runstate.determinism_violations", "count"},
	{"bench.gen_late_ms_p99", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.error_ratio", "ratio"},
}

// workloadFuncs maps workload names to their runners.
var workloadFuncs = map[string]func(*bench) (*outcome, error){
	"figure-sweep":    runFigureSweep,
	"schedule-stream": runScheduleStream,
	"service-mix":     runServiceMix,
	"dist-sweep":      runDistSweep,
}

// workloadSpec is a workload's record in workloads.json: how it loads the
// system, what it feeds it, and why it is in the benchmark. Params holds
// the knobs the benchmark reads.
type workloadSpec struct {
	Loop    string          `json:"loop"`
	Clients string          `json:"clients"`
	Inputs  string          `json:"inputs"`
	Seed    string          `json:"seed"`
	Why     string          `json:"why"`
	Params  json.RawMessage `json:"params"`
}

// bench is one run's context, shared with the workload runner.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	rec      *recorder // nil unless --trace 1
	root     string    // checkout root
	tmp      string    // per-run scratch directory under .bench_build
	spec     workloadSpec
	ref      map[string]string // pinned reference values of this workload
	refs     map[string]map[string]string
	record   map[string]string // non-nil with --record-reference
	failures []string
}

func (b *bench) tracing() bool { return b.rec != nil }

// pin checks one output against its reference value (or records it).
func (b *bench) pin(key, got string) {
	if b.record != nil {
		if prev, ok := b.record[key]; ok && prev != got {
			b.fail("%s is not deterministic: %s then %s", key, prev, got)
		}
		b.record[key] = got
		return
	}
	want, ok := b.ref[key]
	switch {
	case !ok:
		b.fail("no reference value for %s (got %s)", key, got)
	case want != got:
		b.fail("%s = %s, reference %s", key, got, want)
	}
}

// pinFloat checks a floating-point output against its reference value
// with near.
func (b *bench) pinFloat(key string, got float64) {
	if b.record != nil {
		b.pin(key, ftoa(got))
		return
	}
	want, err := strconv.ParseFloat(b.ref[key], 64)
	switch {
	case err != nil:
		b.fail("no reference value for %s (got %s)", key, ftoa(got))
	case !near(got, want):
		b.fail("%s = %s, reference %s", key, ftoa(got), ftoa(want))
	}
}

// fail records an output-check failure; the run then reports
// correct=false and exits nonzero.
func (b *bench) fail(format string, args ...any) {
	if len(b.failures) < 50 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// params decodes the workload's knobs.
func (b *bench) params(v any) error {
	dec := json.NewDecoder(strings.NewReader(string(b.spec.Params)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("workloads.json %s params: %w", b.workload, err)
	}
	return nil
}

// outcome is what a workload runner measured.
type outcome struct {
	// setups are the durations of the repeated set-ups.
	setups []time.Duration
	// opsMs are the latencies of the measured operations.
	opsMs []float64
	// work is the work completed in the workload's unit, and cpu the CPU
	// time the program spent on it.
	work float64
	cpu  time.Duration
	// attempted and failed count operations (failed includes refusals).
	attempted, failed int
	// childRSSKB is the peak RSS of child processes, when the program ran
	// in them.
	childRSSKB int64
	// layers are the per-layer metrics (trace mode).
	layers map[string]float64
	// report lines name the workload's own metrics.
	report []string
}

func (o *outcome) reportf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: figure-sweep, schedule-stream, service-mix, or dist-sweep")
	seed := fs.Int64("seed", 1, "input seed (same seed = same inputs)")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	recordRef := fs.Bool("record-reference", false, "write this workload's pinned outputs into perfbench/reference.json instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloadFuncs[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	b, err := newBench(*workload, *seed, *seconds, *traceFlag == 1, *recordRef)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.tmp)

	envLine, _ := json.Marshal(environment())
	fmt.Fprintf(stdout, "env: %s\n", envLine)
	fmt.Fprintf(stdout, "workload: %s (%s; %s; seed %d; %ds measured)\n", *workload, b.spec.Loop, b.spec.Clients, *seed, *seconds)

	out, err := runWorkload(b)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b.rec != nil {
		if err := writeJSONL(filepath.Join(b.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed)), b.rec.snapshot()); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing trace:", err)
			return 1
		}
	}
	if *recordRef {
		if err := writeReference(b); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	res := summarize(b, out)
	for _, line := range out.report {
		fmt.Fprintln(stdout, line)
	}
	for _, f := range b.failures {
		fmt.Fprintln(stdout, "CHECK FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newBench(workload string, seed int64, seconds int, traced, recordRef bool) (*bench, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("run from the root of a commsched checkout: %w", err)
	}
	var specs map[string]workloadSpec
	if err := json.Unmarshal(workloadsJSON, &specs); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	var refs map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	spec, ok := specs[workload]
	if !ok {
		return nil, fmt.Errorf("workloads.json has no %q", workload)
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		workload: workload,
		seed:     seed,
		seconds:  time.Duration(seconds) * time.Second,
		root:     root,
		tmp:      tmp,
		spec:     spec,
		ref:      refs[workload],
		refs:     refs,
	}
	if traced {
		b.rec = &recorder{}
	}
	if recordRef {
		b.record = map[string]string{}
	}
	return b, nil
}

// writeReference merges this run's pinned values into
// perfbench/reference.json.
func writeReference(b *bench) error {
	path := filepath.Join(b.root, "perfbench", "reference.json")
	var refs map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return err
	}
	if refs == nil {
		refs = map[string]map[string]string{}
	}
	refs[b.workload] = b.record
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// summarize turns an outcome into the result line.
func summarize(b *bench, out *outcome) result {
	res := result{
		Correct:   len(b.failures) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if b.tracing() {
		if out.attempted > 0 {
			out.layers["bench.error_ratio"] = float64(out.failed) / float64(out.attempted)
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: out.layers[m.name], Unit: m.unit}
		}
		return res
	}
	setups := make([]float64, len(out.setups))
	for i, d := range out.setups {
		setups[i] = d.Seconds()
	}
	rssKB := maxRSSKB()
	if out.childRSSKB > rssKB {
		rssKB = out.childRSSKB
	}
	t := tailOf(out.opsMs, 0)
	vals := map[string]float64{
		"setup_s":        median(setups),
		"work_per_cpu_s": out.work / out.cpu.Seconds(),
		"p50_ms":         median(out.opsMs),
		"tail_ms":        t.Value,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	out.reportf("ops: %d measured, p50 %.3f ms, tail p%.1f %.3f ms; %.0f work units in %.3f CPU-s", len(out.opsMs), vals["p50_ms"], t.Pct, t.Value, out.work, out.cpu.Seconds())
	out.reportf("max_rss_mb: %.1f", float64(rssKB)/1024)
	return res
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSKB is this process's peak resident set size in KiB.
func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// measure runs op repeatedly for the run's measured phase: a new
// operation starts only while the phase has room for one more of median
// length. At least one operation runs, and two in a traced run, which
// alternates untraced and traced operations. It returns the operations'
// latencies.
func (b *bench) measure(op func(i int) error) ([]time.Duration, error) {
	minOps := 1
	if b.tracing() {
		minOps = 2
	}
	var durs []time.Duration
	var xs []float64
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return durs, err
		}
		d := time.Since(t0)
		durs = append(durs, d)
		xs = append(xs, float64(d))
		if len(durs) >= minOps && time.Since(start)+time.Duration(median(xs)) > b.seconds {
			return durs, nil
		}
	}
}

// timeSetups runs set-up setupReps times and returns each duration; the
// last set-up's state is what the measured phase uses.
func timeSetups(setup func(last bool) error) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := setup(i == setupReps-1); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}
