package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"commsched/internal/runctl"
	"commsched/internal/telemetry"
)

// TestMain doubles as the child process of the kill-and-resume test: with
// PAPERFIGS_RESUME_CHILD set, the test binary re-executes mainErr like the
// real command would, so the parent can SIGKILL it mid-figure and resume
// it against the same checkpoint directory.
func TestMain(m *testing.M) {
	if os.Getenv("PAPERFIGS_RESUME_CHILD") == "1" {
		opts := telemetry.Options{Banner: os.Stderr}
		if os.Getenv("PAPERFIGS_CHILD_SERVE") == "1" {
			opts.Serve = "127.0.0.1:0"
		}
		fig := os.Getenv("PAPERFIGS_CHILD_FIG")
		if fig == "" {
			fig = "1"
		}
		durable := runctl.Config{ResumeDir: os.Getenv("PAPERFIGS_CHILD_RESUME")}
		if wd := os.Getenv("PAPERFIGS_CHILD_WORKERS_DIR"); wd != "" {
			durable = runctl.Config{
				WorkersDir: wd,
				WorkerID:   os.Getenv("PAPERFIGS_CHILD_WORKER_ID"),
				LeaseTTL:   time.Second,
			}
		}
		if err := mainErr(fig, true, os.Getenv("PAPERFIGS_CHILD_CSV"), opts, "", durable); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// syncBuffer collects a child process's output: os/exec's copy goroutine
// writes it while the test polls it, so both go through one mutex.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// childCmd re-executes this test binary as a paperfigs run writing CSVs
// to csvDir, checkpointing into resumeDir (if any). GOMAXPROCS=1 keeps
// the child's units serial so a SIGKILL lands between journal records.
func childCmd(csvDir, resumeDir string, serve bool) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"PAPERFIGS_RESUME_CHILD=1",
		"PAPERFIGS_CHILD_CSV="+csvDir,
		"PAPERFIGS_CHILD_RESUME="+resumeDir,
		"GOMAXPROCS=1",
	)
	if serve {
		cmd.Env = append(cmd.Env, "PAPERFIGS_CHILD_SERVE=1")
	}
	return cmd
}

var serveBanner = regexp.MustCompile(`telemetry: serving on http://([^\s]+)`)

// TestKillAndResumeBitIdenticalCSV is the durable-runs acceptance test:
// a figure run SIGKILLed mid-flight and resumed with -resume must emit
// CSVs byte-identical to an uninterrupted run, and the resumed process
// must report nonzero checkpoint-replay counters at /metrics.
func TestKillAndResumeBitIdenticalCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	base := t.TempDir()

	// Golden: an uninterrupted run with durable execution off.
	goldenDir := filepath.Join(base, "golden")
	if out, err := childCmd(goldenDir, "", false).CombinedOutput(); err != nil {
		t.Fatalf("golden run failed: %v\n%s", err, out)
	}

	// Interrupted run: SIGKILL as soon as the journal holds a record.
	ckpt := filepath.Join(base, "ckpt")
	first := childCmd(filepath.Join(base, "out1"), ckpt, false)
	var firstLog syncBuffer
	first.Stdout, first.Stderr = &firstLog, &firstLog
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- first.Wait() }()
	journal := filepath.Join(ckpt, "journal.jsonl")
	killed := false
	deadline := time.After(2 * time.Minute)
poll:
	for {
		select {
		case err := <-done:
			// Finished before the kill landed: the resume below still
			// replays a complete journal, so the test stays meaningful.
			if err != nil {
				t.Fatalf("first run failed on its own: %v\n%s", err, firstLog.String())
			}
			t.Log("first run completed before SIGKILL; resuming a finished journal")
			break poll
		case <-deadline:
			first.Process.Kill()
			t.Fatalf("journal never appeared at %s\n%s", journal, firstLog.String())
		default:
		}
		if st, err := os.Stat(journal); err == nil && st.Size() > 0 {
			first.Process.Kill()
			<-done
			killed = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st, err := os.Stat(journal); err != nil || st.Size() == 0 {
		t.Fatalf("no journal survived the kill: %v", err)
	}
	t.Logf("killed mid-run: %v", killed)

	// Resume: must replay from the journal, finish cleanly, expose a
	// nonzero runstate.replayed gauge while running, and reproduce the
	// golden CSVs byte for byte.
	outDir := filepath.Join(base, "out2")
	resume := childCmd(outDir, ckpt, true)
	var resumeLog syncBuffer
	resume.Stdout, resume.Stderr = &resumeLog, &resumeLog
	if err := resume.Start(); err != nil {
		t.Fatal(err)
	}
	done = make(chan error, 1)
	go func() { done <- resume.Wait() }()

	metrics, exited := scrapeReplayedGauge(t, &resumeLog, done)
	if exited {
		t.Fatalf("resumed run exited before /metrics showed a nonzero runstate.replayed gauge\n%s", resumeLog.String())
	}
	if err := <-done; err != nil {
		t.Fatalf("resumed run failed: %v\n%s", err, resumeLog.String())
	}
	if !strings.Contains(resumeLog.String(), "resuming from") {
		t.Fatalf("resume banner missing:\n%s", resumeLog.String())
	}
	t.Logf("mid-run /metrics: %s", metrics)

	for _, name := range []string{"fig1.csv", "fig3.csv", "fig5.csv", "fig6.csv"} {
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(outDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs from the uninterrupted run\ngolden:\n%s\nresumed:\n%s", name, want, got)
		}
	}
}

// scrapeReplayedGauge polls the child's stderr for the telemetry banner,
// then its /metrics endpoint until commsched_value{name="runstate.replayed"}
// is nonzero. Returns the matching metric line, or exited=true if the
// child finished first.
func scrapeReplayedGauge(t *testing.T, log *syncBuffer, done chan error) (string, bool) {
	t.Helper()
	gauge := regexp.MustCompile(`commsched_value\{name="runstate\.replayed"\} ([1-9][0-9.e+]*)`)
	deadline := time.After(2 * time.Minute)
	addr := ""
	for {
		select {
		case err := <-done:
			done <- err // re-queue for the caller
			return "", true
		case <-deadline:
			t.Fatalf("timed out scraping /metrics\n%s", log.String())
		default:
		}
		if addr == "" {
			if m := serveBanner.FindStringSubmatch(log.String()); m != nil {
				addr = m[1]
			} else {
				time.Sleep(time.Millisecond)
				continue
			}
		}
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if m := gauge.Find(body); m != nil {
				return string(m), false
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}
