package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the child process of the kill-and-resume test:
// with COMMSCHEDD_CHILD set, the test binary runs the real daemon loop
// so the parent can SIGKILL it mid-job and restart it on the same state
// directory.
func TestMain(m *testing.M) {
	if os.Getenv("COMMSCHEDD_CHILD") == "1" {
		err := run("127.0.0.1:0", os.Getenv("COMMSCHEDD_CHILD_STATE"),
			1, 64, 0, 0, 0, 0,
			time.Minute, 1, 0, 0,
			30*time.Second, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var daemonBanner = regexp.MustCompile(`commschedd: serving on http://([^\s]+)`)

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

type daemon struct {
	cmd  *exec.Cmd
	log  *syncBuffer
	addr string
	done chan error
}

// startDaemon re-executes this test binary as a durable commschedd on a
// free port and waits until /readyz answers 200.
func startDaemon(t *testing.T, stateDir string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(os.Args[0]), log: &syncBuffer{}, done: make(chan error, 1)}
	d.cmd.Env = append(os.Environ(),
		"COMMSCHEDD_CHILD=1",
		"COMMSCHEDD_CHILD_STATE="+stateDir,
		"GOMAXPROCS=1", // serial jobs: a SIGKILL lands between checkpoint records
	)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	t.Cleanup(func() {
		select {
		case <-d.done: // already gone
		default:
			d.cmd.Process.Kill() //nolint:errcheck // teardown
			<-d.done
		}
	})

	deadline := time.After(2 * time.Minute)
	for {
		select {
		case err := <-d.done:
			d.done <- err
			t.Fatalf("daemon exited before serving: %v\n%s", err, d.log.String())
		case <-deadline:
			t.Fatalf("daemon never announced its address\n%s", d.log.String())
		default:
		}
		if m := daemonBanner.FindStringSubmatch(d.log.String()); m != nil {
			d.addr = m[1]
			break
		}
		time.Sleep(time.Millisecond)
	}
	for {
		select {
		case <-deadline:
			t.Fatalf("daemon never became ready\n%s", d.log.String())
		default:
		}
		resp, err := http.Get("http://" + d.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func (d *daemon) submit(t *testing.T, spec string) map[string]any {
	t.Helper()
	resp, err := http.Post("http://"+d.addr+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var job map[string]any
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatalf("decoding job: %v\n%s", err, body)
	}
	return job
}

// waitResult polls /jobs/{id}/result until 200 and returns the raw bytes.
func (d *daemon) waitResult(t *testing.T, id string, timeout time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, body := d.get(t, "/jobs/"+id+"/result")
		if code == http.StatusOK {
			return body
		}
		if time.Now().After(deadline) {
			_, rec := d.get(t, "/jobs/"+id)
			t.Fatalf("job %s never finished: last result %d %s\nrecord: %s\n%s", id, code, body, rec, d.log.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// An 8-point sweep slow enough for a SIGKILL to land between points.
const sweepSpec = `{
	"kind": "sweep",
	"generate": {"kind": "ring", "switches": 8},
	"assign": [0,0,1,1,2,2,3,3],
	"m": 4,
	"rates": [0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16],
	"warmup_cycles": 500,
	"measure_cycles": 20000,
	"seed": 42
}`

// TestDaemonKillResumeByteIdentical is the daemon acceptance test: a job
// in flight when the process is SIGKILLed must survive the restart, be
// resumed from its checkpoints, and produce a result byte-identical to
// the same spec run without interruption. A final SIGTERM must drain
// cleanly to exit 0.
func TestDaemonKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec integration test")
	}
	state := t.TempDir()

	first := startDaemon(t, state)
	job := d1Submit(t, first)
	id := job["id"].(string)

	// SIGKILL once the job's checkpoint journal holds a sweep point —
	// mid-job, between points, never at a clean boundary.
	journal := filepath.Join(state, "ckpt", id, "journal.jsonl")
	deadline := time.After(2 * time.Minute)
	killedMidJob := true
	for {
		select {
		case err := <-first.done:
			t.Fatalf("first daemon exited on its own: %v\n%s", err, first.log.String())
		case <-deadline:
			t.Fatalf("no checkpoint appeared at %s\n%s", journal, first.log.String())
		default:
		}
		if data, err := os.ReadFile(journal); err == nil && bytes.Contains(data, []byte("point/")) {
			break
		}
		// The job may finish before a kill lands; the resume below then
		// recovers a completed record instead of a mid-flight one.
		if code, body := first.get(t, "/jobs/"+id); code == http.StatusOK && strings.Contains(string(body), `"state": "done"`) {
			killedMidJob = false
			break
		}
		time.Sleep(time.Millisecond)
	}
	first.cmd.Process.Kill() //nolint:errcheck // the point of the test
	<-first.done
	first.done <- nil // mark consumed for the Cleanup
	t.Logf("killed mid-job: %v", killedMidJob)

	// Restart on the same state: the job must be recovered and completed
	// without resubmission.
	second := startDaemon(t, state)
	resumed := second.waitResult(t, id, 2*time.Minute)

	// Golden: the identical spec as a brand-new job on the same daemon.
	golden := second.submit(t, sweepSpec)
	want := second.waitResult(t, golden["id"].(string), 2*time.Minute)
	if !bytes.Equal(resumed, want) {
		t.Errorf("resumed result differs from uninterrupted run\nresumed: %s\ngolden:  %s", resumed, want)
	}

	// The resumed job really did survive a restart: its record predates
	// the second daemon and was not silently re-created.
	if code, body := second.get(t, "/jobs/"+id); code != http.StatusOK || !strings.Contains(string(body), `"state": "done"`) {
		t.Fatalf("recovered job record = %d %s", code, body)
	}

	// SIGTERM: graceful drain, exit 0.
	if err := second.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-second.done:
		second.done <- nil
		if err != nil {
			t.Fatalf("SIGTERM drain must exit 0, got %v\n%s", err, second.log.String())
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("daemon never exited after SIGTERM\n%s", second.log.String())
	}
	if !strings.Contains(second.log.String(), "drained:") {
		t.Fatalf("drain banner missing\n%s", second.log.String())
	}
}

// d1Submit submits the canonical sweep and sanity-checks the daemon's
// surface while it is up: /healthz, /metrics, and the 202 contract.
func d1Submit(t *testing.T, d *daemon) map[string]any {
	t.Helper()
	if code, _ := d.get(t, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code, body := d.get(t, "/metrics"); code != http.StatusOK || !bytes.Contains(body, []byte("commsched")) {
		t.Fatalf("metrics = %d %s", code, body)
	}
	job := d.submit(t, sweepSpec)
	if job["state"] != "queued" && job["state"] != "running" {
		t.Fatalf("submitted job = %+v", job)
	}
	return job
}
