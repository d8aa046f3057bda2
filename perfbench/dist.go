package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"commsched/internal/experiments"
)

var (
	leaseLine = regexp.MustCompile(`lease: (\d+) executed \((\d+) stolen\), (\d+) replayed, (\d+) reclaimed, (\d+) lost, (\d+) conflicts, (\d+) speculated \((\d+) wins\)`)
	mergeLine = regexp.MustCompile(`runstate: merge: (\d+) fencing conflict\(s\), (\d+) determinism violation\(s\)`)
)

// workerRun is one paperfigs worker's accounting.
type workerRun struct {
	exit                time.Time
	rssKB               int64
	cpu                 time.Duration
	executed, stolen    int64
	replayed, conflicts int64
	violations          int64
	status              map[string]float64 // last lease.status event (traced)
	sweepS              float64            // core.simulate_sweep_many span time (traced)
}

// fullScaleSwitchCycles is the simulated switch-cycles of one Figure 3+5
// pass at full scale.
func fullScaleSwitchCycles() (float64, error) {
	sc := experiments.FullScale()
	runs := float64((1 + sc.RandomMappings) * sc.SweepPoints)
	var total float64
	for _, fig := range figures {
		net, err := fig.network()
		if err != nil {
			return 0, err
		}
		total += runs * float64(sc.WarmupCycles+sc.MeasureCycles) * float64(net.Switches())
	}
	return total, nil
}

// runDistSweep is the dist-sweep workload: Figures 3 and 5 computed by a
// fleet of paperfigs worker processes sharing one -workers-dir.
func runDistSweep(b *bench) (*outcome, error) {
	if err := b.params(&struct{}{}); err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	out := &outcome{layers: map[string]float64{}}
	bin := filepath.Join(b.tmp, "paperfigs")
	var err error
	out.setups, err = timeSetups(func(bool) error {
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/paperfigs")
		cmd.Dir = b.root
		if msg, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("building paperfigs: %v\n%s", err, msg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	switchCycles, err := fullScaleSwitchCycles()
	if err != nil {
		return nil, err
	}

	figRef := b.refs["figure-sweep"]
	var (
		traced, plain []time.Duration
		fleets        [][]workerRun
		tails         []float64
	)
	durs, err := b.measure(func(k int) error {
		tracedPass := b.tracing() && k%2 == 1
		t0 := time.Now()
		runs, err := b.fleetPass(bin, k, workers, tracedPass, figRef)
		out.attempted++
		if err != nil {
			out.failed++
			return err
		}
		d := time.Since(t0)
		if tracedPass {
			traced = append(traced, d)
			first, last := runs[0].exit, runs[0].exit
			for _, r := range runs {
				if r.exit.Before(first) {
					first = r.exit
				}
				if r.exit.After(last) {
					last = r.exit
				}
			}
			tails = append(tails, last.Sub(first).Seconds())
		} else {
			plain = append(plain, d)
		}
		fleets = append(fleets, runs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total time.Duration
	for _, d := range durs {
		out.opsMs = append(out.opsMs, ms(d))
		total += d
	}
	out.work = switchCycles * float64(len(durs))
	var executed, violations int64
	for _, runs := range fleets {
		for _, r := range runs {
			if r.rssKB > out.childRSSKB {
				out.childRSSKB = r.rssKB
			}
			out.cpu += r.cpu
			violations += r.violations
		}
	}
	for _, r := range fleets[0] {
		executed += r.executed
	}
	out.reportf("wall_s: %.3f s per fleet pass (median of %d, %d workers)", median(out.opsMs)/1000, len(durs), workers)
	out.reportf("sim_cycles_per_s: %.0f simulated switch-cycles per wall second, %.0f per worker CPU-second", out.work/total.Seconds(), out.work/out.cpu.Seconds())
	out.reportf("lease: %d units executed per pass; runstate determinism violations %d", executed, violations)

	if b.tracing() {
		var acquired, stolen, replayed, renewals, conflicts, specLosses, exec, sweepS float64
		nTraced := 0
		for k, runs := range fleets {
			if k%2 == 0 {
				continue
			}
			nTraced++
			passSweep := 0.0
			for _, r := range runs {
				acquired += r.status["acquired"]
				stolen += float64(r.stolen)
				replayed += float64(r.replayed)
				renewals += r.status["renewals"]
				conflicts += float64(r.conflicts)
				specLosses += r.status["spec_losses"]
				exec += float64(r.executed)
				if r.sweepS > passSweep {
					passSweep = r.sweepS
				}
			}
			sweepS += passSweep
		}
		n := float64(nTraced)
		cycles, _ := strconv.ParseFloat(figRef["simnet.cycles"], 64)
		flits, _ := strconv.ParseFloat(figRef["simnet.delivered_flits"], 64)
		out.layers["core.simulate_sweep_s"] = sweepS / n
		out.layers["simnet.host_ns_per_cycle"] = sweepS / n * 1e9 / cycles
		out.layers["simnet.cycles"] = cycles
		out.layers["simnet.delivered_flits"] = flits
		out.layers["lease.acquired"] = acquired / n
		out.layers["lease.stolen"] = stolen / n
		out.layers["lease.replayed"] = replayed / n
		out.layers["lease.renewals"] = renewals / n
		out.layers["lease.conflicts"] = conflicts / n
		if exec+specLosses > 0 {
			out.layers["lease.useful_ratio"] = exec / (exec + specLosses)
		}
		out.layers["lease.tail_s"] = median(tails)
		out.layers["runstate.determinism_violations"] = float64(violations)
		out.layers["bench.trace_overhead"] = overhead(traced, plain)
	}
	return out, nil
}

// fleetPass starts the workers together on a fresh shared directory,
// waits for all of them, and checks their CSVs and summaries.
func (b *bench) fleetPass(bin string, k, workers int, traced bool, figRef map[string]string) ([]workerRun, error) {
	dir := filepath.Join(b.tmp, fmt.Sprintf("pass%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	root := b.rec.begin("fleet.pass", fmt.Sprintf("pass%d", k), 0)
	if !traced {
		root = 0
	}
	runs := make([]workerRun, workers)
	stderr := make([]bytes.Buffer, workers)
	cmds := make([]*exec.Cmd, workers)
	starts := make([]time.Time, workers)
	for w := 0; w < workers; w++ {
		args := []string{"-fig", "3", "-csv", filepath.Join(dir, fmt.Sprintf("csv%d", w)),
			"-workers-dir", filepath.Join(dir, "shared"), "-worker-id", fmt.Sprintf("w%d", w)}
		if traced {
			args = append(args, "-metrics", filepath.Join(dir, fmt.Sprintf("w%d.jsonl", w)))
		}
		cmd := exec.Command(bin, args...)
		cmd.Dir = b.root
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.Stdout = io.Discard
		cmd.Stderr = &stderr[w]
		cmds[w] = cmd
	}
	for w, cmd := range cmds {
		starts[w] = time.Now()
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:w] {
				c.Process.Kill() //nolint:errcheck // already failing
				c.Wait()         //nolint:errcheck // reaping only
			}
			return nil, err
		}
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w, cmd := range cmds {
		wg.Add(1)
		go func(w int, cmd *exec.Cmd) {
			defer wg.Done()
			errs[w] = cmd.Wait()
			runs[w].exit = time.Now()
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				runs[w].rssKB = ru.Maxrss
				runs[w].cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			}
		}(w, cmd)
	}
	wg.Wait()
	if traced {
		b.rec.end(root)
		for w := range runs {
			b.rec.add("paperfigs.worker", fmt.Sprintf("pass%d", k), root, starts[w], runs[w].exit)
		}
	}
	for w, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("worker w%d: %v\n%s", w, err, stderr[w].String())
		}
	}

	csvs := map[string][]byte{}
	for w := range runs {
		r := &runs[w]
		text := stderr[w].String()
		m := leaseLine.FindStringSubmatch(text)
		if m == nil {
			return nil, fmt.Errorf("worker w%d printed no lease summary:\n%s", w, text)
		}
		n := func(i int) int64 { v, _ := strconv.ParseInt(m[i], 10, 64); return v }
		r.executed, r.stolen, r.replayed, r.conflicts = n(1), n(2), n(3), n(6)
		if mm := mergeLine.FindStringSubmatch(text); mm != nil {
			r.violations, _ = strconv.ParseInt(mm[2], 10, 64)
		}
		if r.violations > 0 {
			b.fail("pass %d worker w%d: %d runstate determinism violation(s)", k, w, r.violations)
		}
		for _, name := range []string{"fig1.csv", "fig3.csv", "fig5.csv", "fig6.csv"} {
			data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("csv%d", w), name))
			if err != nil {
				return nil, err
			}
			if prev, ok := csvs[name]; ok && !bytes.Equal(prev, data) {
				b.fail("pass %d: worker w%d's %s differs from worker w0's", k, w, name)
			}
			csvs[name] = data
		}
		if traced {
			if err := readWorkerMetrics(filepath.Join(dir, fmt.Sprintf("w%d.jsonl", w)), r); err != nil {
				return nil, err
			}
		}
	}
	// Byte-identical to figure-sweep: both are checked against the same
	// reference digests.
	for _, fig := range figures {
		if got, want := sha(csvs[fig.name+".csv"]), figRef[fig.name+".csv.sha256"]; got != want {
			b.fail("pass %d: %s.csv sha256 %s, figure-sweep reference %s", k, fig.name, got, want)
		}
	}
	b.pin("fig1.csv.sha256", sha(csvs["fig1.csv"]))
	b.pin("fig6.csv.sha256", sha(csvs["fig6.csv"]))
	var executed int64
	for _, r := range runs {
		executed += r.executed
	}
	b.pin("lease.executed_total", strconv.FormatInt(executed, 10))
	return runs, nil
}

// readWorkerMetrics pulls the lease counters and the simulation span time
// out of a worker's -metrics JSONL trace.
func readWorkerMetrics(path string, r *workerRun) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec map[string]any
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			continue
		}
		switch rec["name"] {
		case "lease.status":
			r.status = map[string]float64{}
			for k, v := range rec {
				if f, ok := v.(float64); ok {
					r.status[k] = f
				}
			}
		case "core.simulate_sweep_many":
			if rec["kind"] == "span" {
				if d, ok := rec["dur_ms"].(float64); ok {
					r.sweepS += d / 1000
				}
			}
		}
	}
	return sc.Err()
}
