package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// distChildCmd re-executes this test binary as one distributed fig-3
// worker joining the shared workers directory.
func distChildCmd(csvDir, workersDir, workerID string) (*exec.Cmd, *syncBuffer) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"PAPERFIGS_RESUME_CHILD=1",
		"PAPERFIGS_CHILD_FIG=3",
		"PAPERFIGS_CHILD_CSV="+csvDir,
		"PAPERFIGS_CHILD_WORKERS_DIR="+workersDir,
		"PAPERFIGS_CHILD_WORKER_ID="+workerID,
	)
	log := &syncBuffer{}
	cmd.Stdout, cmd.Stderr = log, log
	return cmd, log
}

var (
	reclaimedRe  = regexp.MustCompile(`lease: .*?(\d+) reclaimed`)
	stolenRe     = regexp.MustCompile(`lease: .*?\((\d+) stolen\)`)
	violationsRe = regexp.MustCompile(`(\d+) determinism violation`)
)

// TestDistributedWorkersSurviveSigkill is the crash-recovery acceptance
// test for distributed execution: three workers share a figure-3 sweep,
// one is SIGKILLed mid-unit and restarted under a fresh worker ID, and
// the run must still produce CSVs byte-identical to a serial run, with
// the victim's abandoned lease visibly reclaimed and zero determinism
// violations.
func TestDistributedWorkersSurviveSigkill(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	base := t.TempDir()

	// Golden: one uninterrupted serial run.
	goldenDir := filepath.Join(base, "golden")
	golden := exec.Command(os.Args[0])
	golden.Env = append(os.Environ(),
		"PAPERFIGS_RESUME_CHILD=1",
		"PAPERFIGS_CHILD_FIG=3",
		"PAPERFIGS_CHILD_CSV="+goldenDir,
	)
	if out, err := golden.CombinedOutput(); err != nil {
		t.Fatalf("golden run failed: %v\n%s", err, out)
	}
	want, err := os.ReadFile(filepath.Join(goldenDir, "fig3.csv"))
	if err != nil {
		t.Fatal(err)
	}

	// Three workers join one shared checkpoint directory.
	shared := filepath.Join(base, "shared")
	type worker struct {
		id   string
		csv  string
		cmd  *exec.Cmd
		log  *syncBuffer
		done chan error
	}
	start := func(id string) *worker {
		w := &worker{id: id, csv: filepath.Join(base, "csv-"+id)}
		w.cmd, w.log = distChildCmd(w.csv, shared, id)
		if err := w.cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", id, err)
		}
		w.done = make(chan error, 1)
		go func() { w.done <- w.cmd.Wait() }()
		return w
	}
	workers := []*worker{start("w1"), start("w2"), start("w3")}
	victim := workers[1]

	// SIGKILL the victim the moment it is observed holding a unit lease,
	// so the kill lands mid-unit and the lease must be reclaimed.
	unitsDir := filepath.Join(shared, "lease", "units")
	deadline := time.After(2 * time.Minute)
	killed := true
poll:
	for {
		select {
		case err := <-victim.done:
			if err != nil {
				t.Fatalf("victim failed before the kill: %v\n%s", err, victim.log.String())
			}
			t.Log("victim finished before SIGKILL landed; restart still exercises late join")
			killed = false
			break poll
		case <-deadline:
			for _, w := range workers {
				w.cmd.Process.Kill()
			}
			t.Fatalf("victim never held a lease under %s\n%s", unitsDir, victim.log.String())
		default:
		}
		if len(victimLeases(t, shared)) > 0 {
			victim.cmd.Process.Kill()
			<-victim.done
			break
		}
	}
	t.Logf("victim killed mid-run: %v", killed)

	// If a w2-owned lease with no done marker survived the kill, the
	// protocol has no way to finish without reclaiming it.
	reclaimGuaranteed := killed && len(victimLeases(t, shared)) > 0
	t.Logf("abandoned lease left behind: %v", reclaimGuaranteed)

	// Restart the victim's share of the work under a fresh worker ID.
	replacement := start("w4")
	survivors := []*worker{workers[0], workers[2], replacement}
	for _, w := range survivors {
		if err := <-w.done; err != nil {
			t.Fatalf("worker %s failed: %v\n%s", w.id, err, w.log.String())
		}
	}

	// Every survivor's CSV must be byte-identical to the serial run.
	var all bytes.Buffer
	for _, w := range survivors {
		got, err := os.ReadFile(filepath.Join(w.csv, "fig3.csv"))
		if err != nil {
			t.Fatalf("worker %s wrote no fig3.csv: %v", w.id, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("worker %s fig3.csv differs from serial run\nserial:\n%s\n%s:\n%s", w.id, want, w.id, got)
		}
		all.WriteString(w.log.String())
		if !strings.Contains(w.log.String(), "lease: worker "+w.id+" joined") {
			t.Errorf("worker %s never printed its join banner:\n%s", w.id, w.log.String())
		}
	}

	// The merged run must be clean: no determinism violations anywhere.
	// A worker that saw a fencing conflict prints a merge summary with
	// its violation count, so the count, not the phrase, is checked.
	for _, m := range violationsRe.FindAllStringSubmatch(all.String(), -1) {
		if m[1] != "0" {
			t.Errorf("determinism violations reported:\n%s", all.String())
			break
		}
	}

	// The lease the victim abandoned must have been reclaimed (when one
	// was provably left behind), and the survivors must have picked up
	// the victim's share of the work.
	reclaimed, stolen := 0, 0
	for _, m := range reclaimedRe.FindAllStringSubmatch(all.String(), -1) {
		n, _ := strconv.Atoi(m[1])
		reclaimed += n
	}
	for _, m := range stolenRe.FindAllStringSubmatch(all.String(), -1) {
		n, _ := strconv.Atoi(m[1])
		stolen += n
	}
	t.Logf("survivors reclaimed %d lease(s), stole %d unit(s)", reclaimed, stolen)
	if reclaimGuaranteed && reclaimed == 0 {
		t.Errorf("no worker reported reclaiming the victim's abandoned lease:\n%s", all.String())
	}
	if killed && reclaimed+stolen == 0 {
		t.Errorf("survivors neither reclaimed nor stole after the SIGKILL:\n%s", all.String())
	}
}

// victimLeases lists the lease files currently owned by worker w2 whose
// unit has no done marker — leases that can only be resolved by a
// reclaim.
func victimLeases(t *testing.T, shared string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(shared, "lease", "units"))
	if err != nil {
		return nil
	}
	var held []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(shared, "lease", "units", e.Name()))
		if err != nil || !bytes.Contains(data, []byte(`owner="w2"`)) {
			continue
		}
		done := strings.TrimSuffix(e.Name(), ".lease") + ".done"
		if _, err := os.Stat(filepath.Join(shared, "lease", "done", done)); os.IsNotExist(err) {
			held = append(held, e.Name())
		}
	}
	return held
}
