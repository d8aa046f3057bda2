package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"commsched/internal/par"
	"commsched/internal/runstate"
	"commsched/internal/topology"
)

func specSweep() JobSpec {
	return JobSpec{
		Kind:          KindSweep,
		Generate:      &topology.Spec{Kind: "ring", Switches: 8},
		Assign:        []int{0, 0, 1, 1, 2, 2, 3, 3},
		M:             4,
		Rates:         []float64{0.05, 0.1, 0.15},
		WarmupCycles:  20,
		MeasureCycles: 60,
		Seed:          42,
	}
}

// makeJob resolves the spec far enough to carry the topology hash the
// checkpoint identity pins on — what Submit does for real jobs.
func makeJob(t *testing.T, spec JobSpec) *Job {
	t.Helper()
	net, err := spec.ResolveNetwork()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	sha, err := TopologySHA(net)
	if err != nil {
		t.Fatalf("sha: %v", err)
	}
	return &Job{ID: "jtest", Seq: 1, Spec: spec, TopologySHA: sha}
}

// The acceptance bar: a job that resumes from a checkpoint must produce
// the same bytes as one that ran start-to-finish, and as one that ran
// with no checkpointing at all.
func TestCoreRunnerSweepReplayByteIdentical(t *testing.T) {
	job := makeJob(t, specSweep())

	fresh := &CoreRunner{}
	want, _, err := fresh.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}

	ckpt := &CoreRunner{CkptRoot: t.TempDir()}
	first, _, err := ckpt.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	// Second run over the same directory replays every point.
	replayed, _, err := ckpt.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("replayed run: %v", err)
	}
	if !bytes.Equal(want, first) || !bytes.Equal(want, replayed) {
		t.Fatalf("results diverge:\n  fresh    %s\n  ckpt     %s\n  replayed %s", want, first, replayed)
	}
}

// Proof the replay path is actually taken: a checkpointed point is
// trusted verbatim, not recomputed. We plant an impossible latency and
// expect it back in the result.
func TestCoreRunnerSweepTrustsCheckpointedPoints(t *testing.T) {
	job := makeJob(t, specSweep())
	root := t.TempDir()

	id, err := jobIdentity(job)
	if err != nil {
		t.Fatalf("identity: %v", err)
	}
	ck, err := runstate.Open(filepath.Join(root, job.ID), id)
	if err != nil {
		t.Fatalf("seeding checkpoint: %v", err)
	}
	planted := SweepResultPoint{Index: 1, Rate: job.Spec.Rates[0], AvgLatency: 123456}
	ck.Record("point/000", planted)
	if err := ck.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r := &CoreRunner{CkptRoot: root}
	raw, _, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var res SweepResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(res.Points) != 3 || res.Points[0].AvgLatency != 123456 {
		t.Fatalf("checkpointed point must replay verbatim, got %+v", res.Points)
	}
	if res.Points[1].AvgLatency == 0 || res.Points[1].AvgLatency == 123456 {
		t.Fatalf("uncheckpointed points must still be simulated, got %+v", res.Points[1])
	}
}

// Satellite: a checkpoint directory written under a different identity —
// another job's leftovers, an incompatible schema — must fail the job
// with ErrIdentityMismatch. Never a panic, never a silent re-run against
// alien state. Exercised end-to-end through the service so the failure
// lands in the job record.
func TestServiceIdentityMismatchFailsJob(t *testing.T) {
	root := t.TempDir()
	spec := specSweep()
	net, err := spec.ResolveNetwork()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	sha, err := TopologySHA(net)
	if err != nil {
		t.Fatalf("sha: %v", err)
	}
	// The first job of a fresh store gets a predictable ID; squat on its
	// checkpoint directory with an alien identity before it is born.
	firstID := "j000001-" + sha[:8]
	alien, err := runstate.Open(filepath.Join(root, firstID), runstate.Identity{Command: "not-commschedd"})
	if err != nil {
		t.Fatalf("alien open: %v", err)
	}
	alien.Record("point/000", SweepResultPoint{Index: 1})
	if err := alien.Close(); err != nil {
		t.Fatalf("alien close: %v", err)
	}

	svc := newTestService(t, Config{CkptRoot: root})
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if job.ID != firstID {
		t.Fatalf("job ID %s, squatted on %s", job.ID, firstID)
	}
	failed := waitState(t, svc, job.ID, StateFailed)
	if !strings.Contains(failed.Error, "identity mismatch") {
		t.Fatalf("job error = %q, want an identity-mismatch report", failed.Error)
	}
	if failed.Result != nil {
		t.Fatalf("a refused job must carry no result, got %s", failed.Result)
	}
}

// A broken checkpoint location (not a mismatch — simply unusable)
// degrades to running without durability rather than failing the job.
func TestCoreRunnerCheckpointDegradesOnOpenFailure(t *testing.T) {
	job := makeJob(t, specSweep())
	// CkptRoot is a file: every per-job mkdir under it must fail.
	rootFile := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(rootFile, []byte("not a directory"), 0o644); err != nil {
		t.Fatalf("seeding file: %v", err)
	}
	r := &CoreRunner{CkptRoot: rootFile}
	raw, _, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("run must degrade, not fail: %v", err)
	}
	var res SweepResult
	if err := json.Unmarshal(raw, &res); err != nil || len(res.Points) != 3 {
		t.Fatalf("degraded run must still produce the sweep: %v %s", err, raw)
	}
}

// Salvage: points that fail permanently are kept as Incomplete under the
// error budget; one failure past the budget fails the job.
func TestCoreRunnerSweepSalvagesUnderBudget(t *testing.T) {
	job := makeJob(t, specSweep()) // 3 points
	hostile := par.Policy{Timeout: time.Nanosecond, ErrorBudget: 3}
	r := &CoreRunner{Policy: hostile}
	raw, info, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("run within budget: %v", err)
	}
	if info.Salvaged != 3 {
		t.Fatalf("salvaged = %d, want 3", info.Salvaged)
	}
	var res SweepResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, pt := range res.Points {
		if !pt.Incomplete {
			t.Fatalf("point %d must be marked incomplete: %+v", i, pt)
		}
	}
	if res.Throughput != 0 {
		t.Fatalf("throughput over incomplete points must stay 0, got %v", res.Throughput)
	}

	// Budget one short of the failures: the job fails.
	r = &CoreRunner{Policy: par.Policy{Timeout: time.Nanosecond, ErrorBudget: 2}}
	if _, _, err := r.Run(context.Background(), job); err == nil {
		t.Fatal("exhausted budget must fail the job")
	}
}

func TestCoreRunnerRefusesExhaustiveOnLargeNetworks(t *testing.T) {
	spec := JobSpec{
		Kind:      KindSchedule,
		Generate:  &topology.Spec{Kind: "ring", Switches: 16},
		Clusters:  4,
		Heuristic: "exhaustive",
	}
	job := makeJob(t, spec)
	r := &CoreRunner{}
	if _, _, err := r.Run(context.Background(), job); err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("exhaustive on 16 switches must be refused, got %v", err)
	}
}

func TestCoreRunnerScheduleDeterministic(t *testing.T) {
	spec := JobSpec{
		Kind:      KindSchedule,
		Generate:  &topology.Spec{Kind: "irregular", Switches: 8, Degree: 3},
		Clusters:  4,
		Heuristic: "greedy",
		Seed:      7,
	}
	job := makeJob(t, spec)
	r := &CoreRunner{}
	a, _, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, _, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("schedule not deterministic:\n%s\n%s", a, b)
	}
}
