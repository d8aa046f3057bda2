// Command commschedd is the scheduling-as-a-service daemon: a long-lived,
// multi-tenant HTTP/JSON front end over the commsched core. Clients
// submit topology + workload specs; the daemon runs mapping searches and
// simulation sweeps as queued jobs and serves results, progress, and
// telemetry from one port.
//
// It is built to stay up and degrade gracefully rather than fall over:
//
//   - a bounded queue with backpressure (429 + Retry-After), per-tenant
//     rate limits and quotas, and a heap watermark that sheds load;
//   - with -state, every job transition is journaled before the client
//     sees a 202: a SIGKILLed daemon restarts with no job lost, queued
//     jobs re-enqueued, and interrupted jobs resumed from checkpoints;
//   - per-job deadlines, retries, and error budgets via -timeout,
//     -retries, -errorbudget;
//   - SIGTERM drains: admission closes (503 from /readyz), running jobs
//     get -drain-timeout to finish or park, state is flushed, exit 0.
//
// Usage:
//
//	commschedd -addr :8844 -state /var/lib/commschedd
//	curl -s localhost:8844/readyz
//	curl -s -X POST localhost:8844/jobs -d '{"kind":"schedule","generate":{"kind":"rings","rings":4,"ring_size":6,"bridges":1},"clusters":4,"seed":42}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"commsched/internal/obs"
	"commsched/internal/par"
	"commsched/internal/service"
	"commsched/internal/telemetry"
)

func main() {
	var (
		addr    = flag.String("addr", ":8844", "HTTP listen address (API + telemetry; :0 picks a free port)")
		state   = flag.String("state", "", "state directory for durable jobs (empty = in-memory only; jobs do not survive a restart)")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")

		queueDepth = flag.Int("queue", 64, "max queued jobs before submissions get 429 + Retry-After")
		rate       = flag.Float64("rate", 0, "per-tenant sustained submissions/second (0 = unlimited)")
		burst      = flag.Int("burst", 0, "per-tenant burst size (0 = derived from -rate)")
		tenantJobs = flag.Int("tenant-jobs", 0, "per-tenant cap on queued+running jobs (0 = unlimited)")
		shedMB     = flag.Int("shed-mb", 0, "heap watermark in MiB: above it new work is shed with 429 (0 = off)")

		timeout     = flag.Duration("timeout", 2*time.Minute, "per-unit deadline inside a job (one search, one sweep point); 0 disables")
		retries     = flag.Int("retries", 1, "per-unit retry budget for panics, timeouts, and transient errors")
		errorBudget = flag.Int("errorbudget", 0, "sweep points allowed to fail permanently per job; failed points are salvaged as incomplete (0 = fail the job)")
		jitterSeed  = flag.Int64("jitter-seed", 0, "seed perturbing per-unit backoff jitter (reproducible retry schedules)")

		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long running jobs get to finish on SIGTERM before they are parked")

		metricsOut = flag.String("metrics", "", "also write the observability trace (JSON lines) to this file")
	)
	flag.Parse()
	if err := run(*addr, *state, *workers, *queueDepth, *rate, *burst, *tenantJobs, *shedMB,
		*timeout, *retries, *errorBudget, *jitterSeed, *drainTimeout, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "commschedd:", err)
		os.Exit(1)
	}
}

func run(addr, state string, workers, queueDepth int, rate float64, burst, tenantJobs, shedMB int,
	timeout time.Duration, retries, errorBudget int, jitterSeed int64,
	drainTimeout time.Duration, metricsOut string) error {

	// Telemetry shares the daemon's port: the registry and hub feed
	// /metrics, /events, and /runs on the API mux instead of a second
	// listener.
	reg := telemetry.NewRegistry()
	hub := telemetry.NewHub()
	tel := telemetry.NewServer(reg, hub)
	// The bounded trace store backs GET /trace/{id}: recent traces stay
	// queryable as structured JSON without grepping the JSONL file.
	traces := telemetry.NewTraces(0, 0)
	tel.Traces = traces
	sinks := obs.Fanout{reg, hub, traces}
	var jsonl *obs.JSONL
	if metricsOut != "" {
		j, err := obs.OpenJSONL(metricsOut)
		if err != nil {
			return err
		}
		jsonl = j
		sinks = append(sinks, j)
	}
	obs.SetSink(sinks)
	defer obs.SetSink(nil)

	var store service.JobStore
	ckpt := ""
	if state != "" {
		ds, err := service.OpenDurableStore(state)
		if err != nil {
			return err
		}
		store = ds
		ckpt = service.CkptRoot(state)
		if err := os.MkdirAll(ckpt, 0o755); err != nil {
			return err
		}
	}

	svc, err := service.New(service.Config{
		Store: store,
		Limits: service.Limits{
			QueueDepth:  queueDepth,
			TenantRate:  rate,
			TenantBurst: burst,
			TenantJobs:  tenantJobs,
			ShedBytes:   uint64(shedMB) << 20,
		},
		Workers: workers,
		Policy: par.Policy{
			Timeout:     timeout,
			Retries:     retries,
			Backoff:     100 * time.Millisecond,
			ErrorBudget: errorBudget,
			Seed:        jitterSeed,
		},
		CkptRoot: ckpt,
	})
	if err != nil {
		return err
	}
	if err := svc.Start(context.Background()); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: svc.Mux(tel.Handler())}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "commschedd: serving on http://%s (POST /jobs, /evaluate; GET /jobs, /readyz, /metrics, /events)\n",
		ln.Addr().String())
	if state != "" {
		fmt.Fprintf(os.Stderr, "commschedd: durable state in %s\n", state)
	}

	// First SIGINT/SIGTERM starts the graceful drain; the handler is then
	// removed, so a second signal takes the default disposition and kills
	// a daemon that is stuck winding down.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		signal.Stop(sigCh)
		fmt.Fprintf(os.Stderr, "commschedd: %v received; draining (running jobs get %s, signal again to kill)\n", sig, drainTimeout)
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	}

	// Drain while still serving HTTP: clients keep polling /readyz (now
	// 503) and job status during the wind-down.
	drainErr := svc.Drain(drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		hs.Close() //nolint:errcheck // stragglers after the grace period
	}
	st := svc.Stats()
	fmt.Fprintf(os.Stderr, "commschedd: drained: %d done, %d failed, %d parked, %d still queued\n",
		st.Completed, st.Failed, st.Parked, st.Admission.Queued)
	if jsonl != nil {
		obs.SetSink(nil)
		if err := jsonl.Close(); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	return drainErr
}
