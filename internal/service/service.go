package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"commsched/internal/obs"
	"commsched/internal/par"
)

// ErrInvalid wraps submission errors that are the client's fault (400),
// as opposed to admission rejections (Decision: 429/503) and internal
// failures (500).
var ErrInvalid = errors.New("service: invalid job spec")

// Config assembles a Service. Zero fields get safe defaults; only
// Limits.QueueDepth is mandatory.
type Config struct {
	// Store persists jobs (default: a fresh MemStore). Use
	// OpenDurableStore for a daemon that must survive SIGKILL.
	Store JobStore
	// Runner executes jobs (default: a CoreRunner with Policy and
	// CkptRoot below).
	Runner Runner
	// Limits are the admission-control knobs.
	Limits Limits
	// Workers is the executor pool size (default GOMAXPROCS).
	Workers int
	// Policy is the per-unit robustness policy jobs run under.
	Policy par.Policy
	// CkptRoot is where per-job checkpoint directories live ("" = no
	// mid-job durability; pair with a DurableStore via CkptRoot(state)).
	CkptRoot string
	// Clock is injectable time (default time.Now).
	Clock func() time.Time
	// BatchMax and BatchWait are ignored (/evaluate waits on no timer);
	// they remain so existing callers compile.
	BatchMax  int
	BatchWait time.Duration
}

// Service is the scheduling daemon's engine: admission → bounded queue →
// worker pool → store, with a cache of characterized systems for
// synchronous evaluations. HTTP lives in http.go; the engine is fully
// drivable (and tested) without a socket.
type Service struct {
	store    JobStore
	runner   Runner
	adm      *Admission
	systems  *sysCache
	lim      Limits
	clock    func() time.Time
	ckptRoot string
	workers  int

	queue chan string
	seq   atomic.Int64
	wg    sync.WaitGroup

	mu            sync.Mutex
	started       bool
	drained       bool
	jobCtx        context.Context
	jobCancel     context.CancelFunc
	dequeueCtx    context.Context
	dequeueCancel context.CancelFunc

	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	parked    atomic.Int64
	running   atomic.Int64
}

// New assembles a service; call Start to begin executing jobs.
func New(cfg Config) (*Service, error) {
	adm, err := NewAdmission(cfg.Limits, cfg.Clock, nil)
	if err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	if cfg.Runner == nil {
		cfg.Runner = &CoreRunner{Policy: cfg.Policy, CkptRoot: cfg.CkptRoot}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Service{
		store:    cfg.Store,
		runner:   cfg.Runner,
		adm:      adm,
		systems:  newSysCache(cacheBudget),
		lim:      cfg.Limits,
		clock:    cfg.Clock,
		ckptRoot: cfg.CkptRoot,
		workers:  cfg.Workers,
	}, nil
}

// Start recovers persisted jobs and launches the worker pool. Recovery
// re-enqueues every non-terminal job: queued jobs keep their place (by
// submission order), and jobs that were running or parked when the
// previous process died are re-run — resuming from their per-job
// checkpoints when the runner finds them.
func (s *Service) Start(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("service: already started")
	}
	s.started = true
	s.jobCtx, s.jobCancel = context.WithCancel(ctx)
	s.dequeueCtx, s.dequeueCancel = context.WithCancel(s.jobCtx)

	jobs := s.store.List()
	s.seq.Store(s.store.MaxSeq())
	var recovered []Job
	for _, j := range jobs {
		switch j.State {
		case StateQueued:
			recovered = append(recovered, j)
		case StateRunning, StateParked:
			j.State = StateQueued
			j.Error = ""
			if err := s.store.Update(&j); err != nil {
				return err
			}
			recovered = append(recovered, j)
		}
	}
	// The channel must hold every recovered job plus a full admission
	// window; admission accounting keeps it from ever filling past that.
	s.queue = make(chan string, s.lim.QueueDepth+len(recovered))
	for _, j := range recovered {
		s.adm.Requeue(j.Spec.Tenant)
		s.queue <- j.ID
		s.submitted.Add(1)
	}
	if n := len(recovered); n > 0 {
		obs.Event("service.recovered", obs.F("value", int64(n)))
	}
	for w := 0; w < s.workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return nil
}

// Submit validates, admits, journals, and enqueues one job. The
// returned error is nil (job accepted), a Decision (admission rejected
// it — translate to 429/503), or wraps ErrInvalid (400).
func (s *Service) Submit(spec JobSpec) (Job, error) {
	return s.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit with trace carriage: the context's span context
// (minted by the HTTP trace middleware from the client's traceparent)
// becomes the job's causal identity, journaled with the record so every
// later transition — including a resume in a different process — lands
// in the submission's trace.
func (s *Service) SubmitCtx(ctx context.Context, spec JobSpec) (Job, error) {
	net, err := spec.ResolveNetwork()
	if err != nil {
		return Job{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	sha, err := TopologySHA(net)
	if err != nil {
		return Job{}, err
	}
	if d := s.adm.Admit(spec.Tenant); !d.OK {
		obs.Event("service.rejected", obs.F("reason", d.Reason))
		return Job{}, d
	}
	seq := s.seq.Add(1)
	job := Job{
		ID:          fmt.Sprintf("j%06d-%s", seq, sha[:8]),
		Seq:         seq,
		Spec:        spec,
		TopologySHA: sha,
		State:       StateQueued,
		SubmittedAt: s.clock().UTC(),
	}
	if sc := obs.SpanContextFrom(ctx); sc.Valid() {
		job.Trace = sc.Trace.String()
		job.Span = sc.Span.String()
	}
	if err := s.store.Create(&job); err != nil {
		s.adm.Release(spec.Tenant, true)
		return Job{}, fmt.Errorf("service: persisting job: %w", err)
	}
	select {
	case s.queue <- job.ID:
	default:
		// Admission accounting sizes the channel; reaching this means a
		// bug, but a hung client is worse than a spurious rejection.
		s.adm.Release(spec.Tenant, true)
		job.State = StateFailed
		job.Error = "internal queue overflow"
		_ = s.store.Update(&job)
		return Job{}, Decision{Code: 429, Reason: "queue_full", RetryAfter: time.Second}
	}
	n := s.submitted.Add(1)
	obs.Event("service.submitted", obs.F("value", n), obs.F("job", job.ID), obs.F("tenant", spec.Tenant))
	s.emitDepth()
	return job, nil
}

// Evaluate is the synchronous path: it scores the assignment against
// its topology's characterized system, built once and kept in a bounded
// cache that concurrent first requests share. Only the draining and
// shedding gates apply — an evaluation holds no queue slot and takes no
// tenant token.
func (s *Service) Evaluate(ctx context.Context, spec JobSpec) (EvaluateResult, error) {
	spec.Kind = KindEvaluate
	net, err := spec.ResolveNetwork()
	if err != nil {
		return EvaluateResult{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if s.adm.Draining() {
		return EvaluateResult{}, Decision{Code: 503, Reason: "draining"}
	}
	if s.adm.Shedding() {
		return EvaluateResult{}, Decision{Code: 429, Reason: "shedding", RetryAfter: 5 * time.Second}
	}
	sha, err := TopologySHA(net)
	if err != nil {
		return EvaluateResult{}, err
	}
	sys, err := s.systems.get(ctx, sha, net)
	if err != nil {
		return EvaluateResult{}, err
	}
	return evaluateAssign(sys, spec.Assign, spec.M)
}

// Get returns one job's record.
func (s *Service) Get(id string) (Job, bool) { return s.store.Get(id) }

// List returns all job records in submission order.
func (s *Service) List() []Job { return s.store.List() }

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		// The stop order wins over a ready queue: once a drain begins, no
		// new job may start even if both select cases are ready.
		select {
		case <-s.dequeueCtx.Done():
			return
		default:
		}
		select {
		case <-s.dequeueCtx.Done():
			return
		case id := <-s.queue:
			s.runJob(id)
		}
	}
}

// runJob drives one job from queued to a terminal (or parked) state,
// journaling every transition so a SIGKILL at any instant is recoverable.
func (s *Service) runJob(id string) {
	job, ok := s.store.Get(id)
	if !ok || job.State != StateQueued {
		return // duplicate enqueue or an already-handled record
	}
	s.adm.MarkRunning()
	s.emitDepth()
	job.State = StateRunning
	job.StartedAt = s.clock().UTC()
	job.Attempts++
	queueWait := job.StartedAt.Sub(job.SubmittedAt)
	if queueWait < 0 {
		queueWait = 0
	}
	job.QueueWaitMs = float64(queueWait.Microseconds()) / 1000
	if err := s.store.Update(&job); err != nil {
		obs.Event("service.store_error", obs.F("err", err.Error()))
	}
	s.running.Add(1)
	ctx := s.jobTraceCtx(&job)
	obs.EventCtx(ctx, "service.latency",
		obs.F("state", "queued"), obs.F("seconds", queueWait.Seconds()), obs.F("job", job.ID))
	s.emitJobState(ctx, &job)

	result, info, runErr := s.runner.Run(ctx, &job)
	s.running.Add(-1)
	runDur := s.clock().UTC().Sub(job.StartedAt)

	switch {
	case runErr != nil && s.jobCtx.Err() != nil:
		// Interrupted by shutdown, not by its own failure: park it with
		// its checkpoints; a restarted daemon re-runs it from them.
		job.State = StateParked
		job.Error = runErr.Error()
		s.parked.Add(1)
	case runErr != nil:
		job.State = StateFailed
		job.Error = runErr.Error()
		job.FinishedAt = s.clock().UTC()
		s.failed.Add(1)
	default:
		job.State = StateDone
		job.Result = result
		job.Salvaged = info.Salvaged
		job.FinishedAt = s.clock().UTC()
		s.completed.Add(1)
		if s.ckptRoot != "" {
			// The result is journaled in the job record; the per-job
			// checkpoint directory is now redundant bytes.
			os.RemoveAll(filepath.Join(s.ckptRoot, job.ID)) //nolint:errcheck // best-effort GC
		}
	}
	if err := s.store.Update(&job); err != nil {
		obs.Event("service.store_error", obs.F("err", err.Error()))
	}
	s.adm.Release(job.Spec.Tenant, false)
	obs.EventCtx(ctx, "service.latency",
		obs.F("state", "running"), obs.F("seconds", runDur.Seconds()), obs.F("job", job.ID))
	s.emitJobState(ctx, &job)
	s.emitJobWide(ctx, &job, runDur)
	s.emitDepth()
	obs.Progress("service.jobs", s.completed.Load()+s.failed.Load(), s.submitted.Load())
}

// jobTraceCtx derives the job's execution context: the daemon's job
// context carrying the journaled submission span context, so every span
// and event the run emits — in this process or a post-SIGKILL successor —
// stitches under the submission.
func (s *Service) jobTraceCtx(j *Job) context.Context {
	tid, terr := obs.ParseTraceID(j.Trace)
	sid, serr := obs.ParseSpanID(j.Span)
	if terr != nil || serr != nil {
		return s.jobCtx
	}
	return obs.WithSpanContext(s.jobCtx, obs.SpanContext{Trace: tid, Span: sid, Sampled: true})
}

func (s *Service) emitJobState(ctx context.Context, j *Job) {
	obs.EventCtx(ctx, "service.job",
		obs.F("job", j.ID),
		obs.F("state", string(j.State)),
		obs.F("attempts", j.Attempts),
		obs.F("tenant", j.Spec.Tenant))
}

// emitJobWide emits the canonical per-job wide event: one record carrying
// everything an operator asks of a finished (or parked) job — identity,
// tenant, lifecycle, queue wait, run time, attempts, salvage count, and
// the headline result quantities — so a single JSONL line joins the
// trace to the paper's numbers.
func (s *Service) emitJobWide(ctx context.Context, j *Job, runDur time.Duration) {
	if !obs.Enabled() {
		return
	}
	fields := []obs.Field{
		obs.F("job", j.ID),
		obs.F("tenant", j.Spec.Tenant),
		obs.F("kind", string(j.Spec.Kind)),
		obs.F("state", string(j.State)),
		obs.F("attempts", j.Attempts),
		obs.F("salvaged", j.Salvaged),
		obs.F("queue_wait_ms", j.QueueWaitMs),
		obs.F("run_ms", float64(runDur.Microseconds())/1000),
		obs.F("seed", j.Spec.Seed),
		obs.F("topology_sha", j.TopologySHA),
	}
	if j.Error != "" {
		fields = append(fields, obs.F("err", j.Error))
	}
	if j.State == StateDone && len(j.Result) > 0 {
		// Headline quantities shared by the result documents; absent
		// fields stay zero and are omitted below.
		var head struct {
			Cc          float64 `json:"cc"`
			Evaluations int     `json:"evaluations"`
			Iterations  int     `json:"iterations"`
			Throughput  float64 `json:"throughput"`
		}
		if json.Unmarshal(j.Result, &head) == nil {
			if head.Cc != 0 {
				fields = append(fields, obs.F("cc", head.Cc))
			}
			if head.Evaluations > 0 {
				fields = append(fields, obs.F("evaluations", head.Evaluations), obs.F("iterations", head.Iterations))
			}
			if head.Throughput != 0 {
				fields = append(fields, obs.F("throughput", head.Throughput))
			}
		}
	}
	obs.Wide(ctx, "job.wide", fields...)
}

func (s *Service) emitDepth() {
	st := s.adm.Stats()
	obs.Event("service.queue_depth", obs.F("value", int64(st.Queued)))
}

// Drain is the graceful-shutdown sequence: stop admitting (readyz and
// submissions flip to 503), let running jobs finish within the deadline,
// hard-cancel (and park) whatever remains, then flush and close the
// store. Jobs still queued stay journaled as queued and re-enqueue on
// the next start. A clean drain returns nil — the daemon exits 0.
func (s *Service) Drain(deadline time.Duration) error {
	s.mu.Lock()
	if !s.started || s.drained {
		s.mu.Unlock()
		return s.store.Close()
	}
	s.drained = true
	s.mu.Unlock()

	s.adm.SetDraining(true)
	obs.Event("service.draining", obs.F("value", int64(1)))
	s.dequeueCancel()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		// Deadline: order in-flight jobs to park. The runner observes
		// the cancellation between units, journals "parked", and the
		// worker exits.
		s.jobCancel()
		<-done
	}
	s.jobCancel() // release the context either way
	return s.store.Close()
}

// ServiceStats is the engine's observable state (served at /readyz).
type ServiceStats struct {
	Admission AdmissionStats `json:"admission"`
	Running   int64          `json:"running"`
	Submitted int64          `json:"submitted"`
	Completed int64          `json:"completed"`
	Failed    int64          `json:"failed"`
	Parked    int64          `json:"parked"`
	Workers   int            `json:"workers"`
	QueueCap  int            `json:"queue_cap"`
	// Batches counts the characterizations /evaluate ran (cache misses).
	// Coalesced counts /evaluate calls that ran none because their
	// topology's system was cached or already being characterized.
	Batches   int64 `json:"eval_batches"`
	Coalesced int64 `json:"eval_coalesced"`
}

// Stats snapshots the counters.
func (s *Service) Stats() ServiceStats {
	coalesced, batches := s.systems.stats()
	return ServiceStats{
		Admission: s.adm.Stats(),
		Running:   s.running.Load(),
		Submitted: s.submitted.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Parked:    s.parked.Load(),
		Workers:   s.workers,
		QueueCap:  s.lim.QueueDepth,
		Batches:   batches,
		Coalesced: coalesced,
	}
}
