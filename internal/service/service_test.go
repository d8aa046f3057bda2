package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// stubRunner is a controllable Runner: it can block until released,
// fail, or return a canned result — no simulation cost in engine tests.
type stubRunner struct {
	block  chan struct{} // when non-nil, Run waits for close(block) or ctx
	err    error
	result json.RawMessage
	runs   atomic.Int64
}

func (r *stubRunner) Run(ctx context.Context, job *Job) (json.RawMessage, RunInfo, error) {
	r.runs.Add(1)
	if r.block != nil {
		select {
		case <-r.block:
		case <-ctx.Done():
			return nil, RunInfo{}, ctx.Err()
		}
	}
	if r.err != nil {
		return nil, RunInfo{}, r.err
	}
	res := r.result
	if res == nil {
		res = json.RawMessage(`{"ok":true}`)
	}
	return res, RunInfo{}, nil
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Limits.QueueDepth == 0 {
		cfg.Limits.QueueDepth = 8
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := svc.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { svc.Drain(2 * time.Second) }) //nolint:errcheck // teardown
	return svc
}

func waitState(t *testing.T, svc *Service, id string, want JobState) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := svc.Get(id); ok && j.State == want {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, _ := svc.Get(id)
	t.Fatalf("job %s never reached %s (now %s, err %q)", id, want, j.State, j.Error)
	return Job{}
}

func TestServiceRunsJobToCompletion(t *testing.T) {
	svc := newTestService(t, Config{Runner: &stubRunner{}})
	job, err := svc.Submit(specEval())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if job.State != StateQueued || job.ID == "" || job.SubmittedAt.IsZero() {
		t.Fatalf("accepted job = %+v", job)
	}
	done := waitState(t, svc, job.ID, StateDone)
	if string(done.Result) != `{"ok":true}` || done.Attempts != 1 {
		t.Fatalf("done job = %+v", done)
	}
	if done.StartedAt.IsZero() || done.FinishedAt.IsZero() {
		t.Fatalf("missing timestamps: %+v", done)
	}
	st := svc.Stats()
	if st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServiceInvalidSpecRejected(t *testing.T) {
	svc := newTestService(t, Config{Runner: &stubRunner{}})
	_, err := svc.Submit(JobSpec{Kind: "nonsense"})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("want ErrInvalid, got %v", err)
	}
	if _, err := svc.Submit(JobSpec{Kind: KindEvaluate}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("missing network/generate: want ErrInvalid, got %v", err)
	}
}

func TestServiceFailedJob(t *testing.T) {
	svc := newTestService(t, Config{Runner: &stubRunner{err: errors.New("kaboom")}})
	job, err := svc.Submit(specEval())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	failed := waitState(t, svc, job.ID, StateFailed)
	if failed.Error != "kaboom" || failed.Result != nil {
		t.Fatalf("failed job = %+v", failed)
	}
}

func TestServiceBackpressureAt429ThenRecovers(t *testing.T) {
	block := make(chan struct{})
	svc := newTestService(t, Config{
		Runner:  &stubRunner{block: block},
		Workers: 1,
		Limits:  Limits{QueueDepth: 2},
	})
	// One job runs (blocked in the worker), two fill the queue.
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := svc.Submit(specEval())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.ID)
		if i == 0 {
			waitState(t, svc, j.ID, StateRunning)
		}
	}
	_, err := svc.Submit(specEval())
	var d Decision
	if !errors.As(err, &d) || d.Code != 429 || d.Reason != "queue_full" {
		t.Fatalf("full queue must 429 queue_full, got %v", err)
	}
	if d.RetryAfter <= 0 {
		t.Fatalf("429 must carry Retry-After, got %+v", d)
	}
	// Unblock: everything completes and admission opens again.
	close(block)
	for _, id := range ids {
		waitState(t, svc, id, StateDone)
	}
	if _, err := svc.Submit(specEval()); err != nil {
		t.Fatalf("drained queue must admit again: %v", err)
	}
}

func TestServiceTenantQuota(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	svc := newTestService(t, Config{
		Runner: &stubRunner{block: block},
		Limits: Limits{QueueDepth: 8, TenantJobs: 1},
	})
	spec := specEval()
	spec.Tenant = "alice"
	if _, err := svc.Submit(spec); err != nil {
		t.Fatalf("first: %v", err)
	}
	_, err := svc.Submit(spec)
	var d Decision
	if !errors.As(err, &d) || d.Reason != "quota" {
		t.Fatalf("tenant over quota must be rejected, got %v", err)
	}
	other := specEval()
	other.Tenant = "bob"
	if _, err := svc.Submit(other); err != nil {
		t.Fatalf("other tenant must pass: %v", err)
	}
}

func TestServiceDrainFinishesRunningJobs(t *testing.T) {
	block := make(chan struct{})
	svc := newTestService(t, Config{Runner: &stubRunner{block: block}, Workers: 1, Limits: Limits{QueueDepth: 4}})
	running, err := svc.Submit(specEval())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, svc, running.ID, StateRunning)
	queued, err := svc.Submit(specEval())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	drained := make(chan error, 1)
	go func() { drained <- svc.Drain(10 * time.Second) }()
	// Draining: new submissions are refused with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := svc.Submit(specEval())
		var d Decision
		if errors.As(err, &d) && d.Code == 503 && d.Reason == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions during drain must 503, got %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(block) // the running job finishes within the deadline
	if err := <-drained; err != nil {
		t.Fatalf("clean drain must return nil, got %v", err)
	}
	if j, _ := svc.Get(running.ID); j.State != StateDone {
		t.Fatalf("running job must finish during a roomy drain, got %s", j.State)
	}
	// The queued job was never started: it stays queued for a restart.
	if j, _ := svc.Get(queued.ID); j.State != StateQueued {
		t.Fatalf("undrained queued job must stay queued, got %s", j.State)
	}
}

func TestServiceDrainDeadlineParksRunningJobs(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	svc := newTestService(t, Config{Runner: &stubRunner{block: block}, Workers: 1, Limits: Limits{QueueDepth: 4}})
	job, err := svc.Submit(specEval())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitState(t, svc, job.ID, StateRunning)
	if err := svc.Drain(50 * time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if j, _ := svc.Get(job.ID); j.State != StateParked {
		t.Fatalf("job past the drain deadline must park, got %s (%q)", j.State, j.Error)
	}
	if svc.Stats().Parked != 1 {
		t.Fatalf("stats = %+v", svc.Stats())
	}
}

// Restart recovery: a store holding queued, running, and parked jobs
// re-enqueues all of them (running/parked first journal back to queued),
// in submission order, and they complete under the new process.
func TestServiceRecoveryReenqueuesNonTerminal(t *testing.T) {
	store := NewMemStore()
	seed := []Job{
		{ID: "q1", Seq: 1, Spec: specEval(), State: StateQueued},
		{ID: "r1", Seq: 2, Spec: specEval(), State: StateRunning, Attempts: 1},
		{ID: "p1", Seq: 3, Spec: specEval(), State: StateParked, Attempts: 2, Error: "interrupted"},
		{ID: "d1", Seq: 4, Spec: specEval(), State: StateDone, Result: json.RawMessage(`{}`)},
	}
	for i := range seed {
		if err := store.Create(&seed[i]); err != nil {
			t.Fatalf("seeding: %v", err)
		}
	}
	svc := newTestService(t, Config{Store: store, Runner: &stubRunner{}, Limits: Limits{QueueDepth: 2}})
	// QueueDepth 2 < 3 recovered jobs: recovery must still fit them all.
	for _, id := range []string{"q1", "r1", "p1"} {
		j := waitState(t, svc, id, StateDone)
		if j.Attempts < 1 {
			t.Fatalf("%s attempts = %d", id, j.Attempts)
		}
		if id == "p1" && j.Error != "" {
			t.Fatalf("resumed job must clear its park error, got %q", j.Error)
		}
	}
	if j, _ := svc.Get("d1"); j.State != StateDone {
		t.Fatalf("terminal job must not re-run, got %s", j.State)
	}
	// Recovered reservations were released: the bounded queue admits new
	// work again up to its normal watermark.
	for i := 0; i < 2; i++ {
		j, err := svc.Submit(specEval())
		if err != nil {
			t.Fatalf("post-recovery submit %d: %v", i, err)
		}
		waitState(t, svc, j.ID, StateDone)
	}
}

func TestServiceStartTwiceRefused(t *testing.T) {
	svc := newTestService(t, Config{Runner: &stubRunner{}})
	if err := svc.Start(context.Background()); err == nil {
		t.Fatal("second Start must be refused")
	}
}

func TestServiceJobIDsUniqueAcrossRestart(t *testing.T) {
	store := NewMemStore()
	j := Job{ID: "old", Seq: 7, Spec: specEval(), State: StateDone}
	if err := store.Create(&j); err != nil {
		t.Fatalf("seed: %v", err)
	}
	svc := newTestService(t, Config{Store: store, Runner: &stubRunner{}})
	nj, err := svc.Submit(specEval())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if nj.Seq <= 7 {
		t.Fatalf("new Seq %d must exceed the recovered MaxSeq 7", nj.Seq)
	}
}

// The synchronous evaluate path respects drain.
func TestServiceEvaluateDuringDrainRefused(t *testing.T) {
	svc := newTestService(t, Config{Runner: &stubRunner{}})
	if err := svc.Drain(time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	_, err := svc.Evaluate(context.Background(), specEval())
	var d Decision
	if !errors.As(err, &d) || d.Code != 503 {
		t.Fatalf("evaluate during drain must 503, got %v", err)
	}
}

func TestServiceEvaluateBatchedAnswers(t *testing.T) {
	svc := newTestService(t, Config{Runner: &stubRunner{}})
	res, err := svc.Evaluate(context.Background(), specEval())
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if res.Cc <= 0 {
		t.Fatalf("Cc = %v, want positive", res.Cc)
	}
	// Determinism: the same spec scores identically.
	again, err := svc.Evaluate(context.Background(), specEval())
	if err != nil || again != res {
		t.Fatalf("evaluate not deterministic: %+v vs %+v (%v)", res, again, err)
	}
}

// Sanity: the emitted job IDs embed the topology hash and stay unique
// under concurrent submissions.
func TestServiceConcurrentSubmissionUniqueness(t *testing.T) {
	svc := newTestService(t, Config{Runner: &stubRunner{}, Limits: Limits{QueueDepth: 512}, Workers: 4})
	const n = 100
	ids := make(chan string, n)
	for i := 0; i < n; i++ {
		go func() {
			j, err := svc.Submit(specEval())
			if err != nil {
				ids <- fmt.Sprintf("err:%v", err)
				return
			}
			ids <- j.ID
		}()
	}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		id := <-ids
		if seen[id] {
			t.Fatalf("duplicate job ID %s", id)
		}
		seen[id] = true
	}
}
