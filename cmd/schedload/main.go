// Command schedload is the load-test harness for commschedd: it fires a
// seeded, multi-tenant mix of job submissions at a running daemon with
// bounded concurrency, honors the daemon's backpressure (429 +
// Retry-After), waits for every accepted job to reach a terminal state,
// and asserts the robustness contract:
//
//   - zero lost jobs: every accepted submission is retrievable and
//     reaches done/failed (nothing vanishes, nothing is duplicated);
//   - bounded admission latency: the p99 POST /jobs round trip stays
//     under -p99 even while the queue is pushing back;
//   - backpressure over collapse: at the queue watermark the daemon
//     answers 429, not timeouts;
//   - trace continuity: every submission carries a fresh seeded W3C
//     traceparent, and the daemon must echo the same trace ID back and
//     journal it on the job record — a mismatch is a violation.
//
// Beyond admission latency, the summary reports the daemon-measured
// queue wait (time from accept to run start, journaled per job as
// queue_wait_ms) as p50/p99 — the scheduling-delay half of the SLO that
// client-side round-trip times cannot see.
//
// It prints a JSON summary to stdout and exits nonzero when any
// assertion fails, so CI can gate on it directly:
//
//	schedload -base http://localhost:8844 -n 1000 -c 32 -tenants 8 -seed 1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"commsched/internal/service"
	"commsched/internal/topology"
)

func main() {
	var (
		base     = flag.String("base", "http://localhost:8844", "daemon base URL")
		n        = flag.Int("n", 1000, "total submissions")
		c        = flag.Int("c", 32, "concurrent submitters")
		tenants  = flag.Int("tenants", 8, "distinct tenants in the mix")
		seed     = flag.Int64("seed", 1, "mix seed (same seed = same submission stream)")
		p99Limit = flag.Duration("p99", 2*time.Second, "max acceptable p99 admission latency")
		wait     = flag.Duration("wait", 2*time.Minute, "how long to wait for accepted jobs to finish")
		reqTO    = flag.Duration("request-timeout", 10*time.Second, "per-request timeout")
		maxRetry = flag.Int("max-retries", 50, "max backpressure retries per submission before counting it rejected")
		submit   = flag.Bool("submit-only", false, "submit without waiting for completion (drain/restart scenarios: the daemon may go away mid-run)")

		churn        = flag.Float64("churn", 0, "distributed-lease churn mode: SIGKILL this fraction of workers mid-run and restart them; audits exactly-once results and reports reclaim latency p50/p99 (skips the HTTP load test)")
		churnWorkers = flag.Int("churn-workers", 3, "worker processes in the churn fleet")
		churnUnits   = flag.Int("churn-units", 48, "units in the churn workload")
		churnTTL     = flag.Duration("churn-ttl", time.Second, "lease TTL for churn workers")
		churnUnitDur = flag.Duration("churn-unit-dur", 50*time.Millisecond, "simulated work per churn unit (kills must land mid-unit)")
	)
	if os.Getenv("SCHEDLOAD_CHURN_WORKER") == "1" {
		os.Exit(churnWorkerMain())
	}
	flag.Parse()
	if *churn > 0 {
		code, summary := runChurn(churnConfig{
			Fraction: *churn, Workers: *churnWorkers, Units: *churnUnits,
			Seed: *seed, TTL: *churnTTL, UnitDur: *churnUnitDur,
		})
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(summary) //nolint:errcheck // stdout
		os.Exit(code)
	}
	code, summary := run(*base, *n, *c, *tenants, *seed, *p99Limit, *wait, *reqTO, *maxRetry, *submit)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(summary) //nolint:errcheck // stdout
	os.Exit(code)
}

// summary is the machine-readable verdict.
type summary struct {
	Submitted  int            `json:"submitted"`
	Accepted   int            `json:"accepted"`
	Rejected   map[string]int `json:"rejected,omitempty"`
	Retries    int            `json:"backpressure_retries"`
	Errors     int            `json:"transport_errors"`
	Done       int            `json:"done"`
	Failed     int            `json:"failed"`
	Lost       []string       `json:"lost,omitempty"`
	Duplicated []string       `json:"duplicated,omitempty"`
	P50Ms      float64        `json:"p50_ms"`
	P99Ms      float64        `json:"p99_ms"`
	MaxMs      float64        `json:"max_ms"`
	// TraceMismatches counts accepted submissions whose echoed or
	// journaled trace ID differed from the traceparent we sent.
	TraceMismatches int `json:"trace_mismatches"`
	// QueueP50Ms / QueueP99Ms are percentiles of the daemon's own
	// queue-wait measurement (accept → run start) across finished jobs.
	QueueP50Ms float64 `json:"queue_p50_ms"`
	QueueP99Ms float64 `json:"queue_p99_ms"`
	// Reclaims and ReclaimP50Ms/ReclaimP99Ms report, in churn mode, how
	// many expired leases the surviving workers took over and how long
	// past their deadlines the dead leases sat first.
	Reclaims     int      `json:"reclaims,omitempty"`
	ReclaimP50Ms float64  `json:"reclaim_p50_ms,omitempty"`
	ReclaimP99Ms float64  `json:"reclaim_p99_ms,omitempty"`
	ElapsedMs    float64  `json:"elapsed_ms"`
	Violations   []string `json:"violations,omitempty"`
}

// traceparentFor mints submission i's W3C traceparent from the mix seed:
// deterministic per (seed, i), distinct across submissions, never the
// all-zero IDs the spec forbids.
func traceparentFor(i int, seed int64) string {
	rng := rand.New(rand.NewSource(seed*6364136223846793005 + int64(i)*1442695040888963407 + 1))
	var tr [16]byte
	var sp [8]byte
	for b := range tr {
		tr[b] = byte(rng.Intn(256))
	}
	for b := range sp {
		sp[b] = byte(rng.Intn(256))
	}
	tr[15] |= 1
	sp[7] |= 1
	return fmt.Sprintf("00-%x-%x-01", tr, sp)
}

// traceOf extracts the 32-hex trace ID from a traceparent header ("" when
// the header is not even shaped like one).
func traceOf(tp string) string {
	if len(tp) < 35 || tp[2] != '-' || tp[35] != '-' {
		return ""
	}
	return tp[3:35]
}

// specFor builds submission i of the seeded mix: a rotating tenant and a
// deterministic blend of cheap evaluate jobs, schedule searches, and the
// occasional short sweep — enough variety to exercise the evaluate-job
// path, the search path, and the checkpointing sweep path at once. Every
// request goes to POST /jobs, so none reaches the synchronous /evaluate
// endpoint.
func specFor(i, tenants int, seed int64) service.JobSpec {
	rng := rand.New(rand.NewSource(seed + int64(i)*7919))
	spec := service.JobSpec{
		Tenant: "t" + strconv.Itoa(i%max(1, tenants)),
		Seed:   rng.Int63n(1 << 30),
	}
	switch {
	case i%10 < 6: // 60%: evaluate a fixed mapping on a small ring
		spec.Kind = service.KindEvaluate
		spec.Generate = &topology.Spec{Kind: "ring", Switches: 8}
		spec.M = 4
		// A random rotation of a balanced assignment: every cluster keeps
		// two switches, so the mapping is always valid while the jobs
		// still see varied inputs.
		rot := rng.Intn(8)
		spec.Assign = make([]int, 8)
		for s := range spec.Assign {
			spec.Assign[s] = ((s + rot) / 2) % 4
		}
	case i%10 < 9: // 30%: schedule a small irregular network
		spec.Kind = service.KindSchedule
		spec.Generate = &topology.Spec{Kind: "irregular", Switches: 8, Degree: 3, Seed: 1 + int64(i%4)}
		spec.Clusters = 4
		spec.Heuristic = "greedy"
	default: // 10%: a short two-point sweep
		spec.Kind = service.KindSweep
		spec.Generate = &topology.Spec{Kind: "ring", Switches: 8}
		spec.Clusters = 4
		spec.Heuristic = "greedy"
		spec.Rates = []float64{0.1, 0.2}
		spec.WarmupCycles = 50
		spec.MeasureCycles = 200
	}
	return spec
}

func run(base string, n, c, tenants int, seed int64, p99Limit, wait, reqTO time.Duration, maxRetry int, submitOnly bool) (int, summary) {
	client := &http.Client{Timeout: reqTO}
	sum := summary{Submitted: n, Rejected: map[string]int{}}
	var (
		mu        sync.Mutex
		accepted  []string
		latencies []time.Duration
	)
	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				tp := traceparentFor(i, seed)
				id, lat, retries, reason, traceOK, terr := submit(client, base, specFor(i, tenants, seed), tp, maxRetry)
				mu.Lock()
				sum.Retries += retries
				switch {
				case terr != nil:
					sum.Errors++
				case id == "":
					sum.Rejected[reason]++
				default:
					accepted = append(accepted, id)
					latencies = append(latencies, lat)
					if !traceOK {
						sum.TraceMismatches++
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	sum.Accepted = len(accepted)
	sum.P50Ms, sum.P99Ms, sum.MaxMs = percentiles(latencies)
	sum.Duplicated = findDuplicates(accepted)

	// A submit-only run feeds drain/restart scenarios: the daemon is
	// expected to go away mid-storm, so skip the completion audit (and
	// the violations that presume a daemon still answering).
	if submitOnly {
		sum.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
		if len(sum.Duplicated) > 0 {
			sum.Violations = append(sum.Violations, fmt.Sprintf("%d duplicated job ID(s)", len(sum.Duplicated)))
			return 1, sum
		}
		return 0, sum
	}

	// Wait for every accepted job to reach a terminal state, then audit
	// the daemon's ledger against ours.
	deadline := time.Now().Add(wait)
	pending := map[string]bool{}
	for _, id := range accepted {
		pending[id] = true
	}
	var queueWaits []time.Duration
	for len(pending) > 0 && time.Now().Before(deadline) {
		states, err := listStates(client, base)
		if err != nil {
			time.Sleep(500 * time.Millisecond)
			continue
		}
		for id := range pending {
			switch states[id].State {
			case "done":
				sum.Done++
				delete(pending, id)
				queueWaits = append(queueWaits, time.Duration(states[id].QueueWaitMs*float64(time.Millisecond)))
			case "failed":
				sum.Failed++
				delete(pending, id)
				queueWaits = append(queueWaits, time.Duration(states[id].QueueWaitMs*float64(time.Millisecond)))
			}
		}
		if len(pending) > 0 {
			time.Sleep(200 * time.Millisecond)
		}
	}
	sum.QueueP50Ms, sum.QueueP99Ms, _ = percentiles(queueWaits)
	for id := range pending {
		sum.Lost = append(sum.Lost, id)
	}
	sort.Strings(sum.Lost)
	sum.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)

	if len(sum.Lost) > 0 {
		sum.Violations = append(sum.Violations, fmt.Sprintf("%d accepted job(s) never reached a terminal state", len(sum.Lost)))
	}
	if len(sum.Duplicated) > 0 {
		sum.Violations = append(sum.Violations, fmt.Sprintf("%d duplicated job ID(s)", len(sum.Duplicated)))
	}
	if p99 := time.Duration(sum.P99Ms * float64(time.Millisecond)); p99 > p99Limit {
		sum.Violations = append(sum.Violations, fmt.Sprintf("p99 admission latency %s exceeds %s", p99, p99Limit))
	}
	if sum.Errors > 0 {
		sum.Violations = append(sum.Violations, fmt.Sprintf("%d transport error(s): the daemon must answer (even with 429), not hang or drop connections", sum.Errors))
	}
	if sum.TraceMismatches > 0 {
		sum.Violations = append(sum.Violations, fmt.Sprintf("%d accepted submission(s) came back in the wrong trace: the daemon must echo and journal the client's trace ID", sum.TraceMismatches))
	}
	if len(sum.Violations) > 0 {
		return 1, sum
	}
	return 0, sum
}

// submit POSTs one job with the given traceparent, retrying on
// backpressure per the daemon's own Retry-After advice (capped so a
// drain does not strand the harness). Returns the accepted job ID, the
// first-accept admission latency, the number of backpressure retries,
// the final rejection reason when the job was never accepted, whether
// the daemon kept the submission in the client's trace (echoed header
// AND journaled job record), and any transport error.
func submit(client *http.Client, base string, spec service.JobSpec, tp string, maxRetry int) (string, time.Duration, int, string, bool, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, 0, "", false, err
	}
	retries := 0
	for {
		req, err := http.NewRequest("POST", base+"/jobs", bytes.NewReader(body))
		if err != nil {
			return "", 0, retries, "", false, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("traceparent", tp)
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return "", 0, retries, "", false, err
		}
		lat := time.Since(t0)
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted:
			var job service.Job
			if err := json.Unmarshal(data, &job); err != nil || job.ID == "" {
				return "", 0, retries, "", false, fmt.Errorf("202 with undecodable job: %v", err)
			}
			want := traceOf(tp)
			traceOK := traceOf(resp.Header.Get("traceparent")) == want && job.Trace == want
			return job.ID, lat, retries, "", traceOK, nil
		case resp.StatusCode == http.StatusTooManyRequests && retries < maxRetry:
			retries++
			time.Sleep(retryAfter(resp, 50*time.Millisecond))
		default:
			var ae struct {
				Reason string `json:"reason"`
			}
			json.Unmarshal(data, &ae) //nolint:errcheck // best-effort reason
			if ae.Reason == "" {
				ae.Reason = strconv.Itoa(resp.StatusCode)
			}
			return "", 0, retries, ae.Reason, false, nil
		}
	}
}

// retryAfter parses the Retry-After header, clamped to keep the harness
// brisk (the daemon's advice is sized for polite clients, not load tests).
func retryAfter(resp *http.Response, fallback time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			d := time.Duration(secs) * time.Second
			if d > 500*time.Millisecond {
				d = 500 * time.Millisecond
			}
			return d
		}
	}
	return fallback
}

// jobStatus is the slice of a job record the audit loop needs.
type jobStatus struct {
	State       string
	QueueWaitMs float64
}

// listStates fetches every job's state (and measured queue wait) in one call.
func listStates(client *http.Client, base string) (map[string]jobStatus, error) {
	resp, err := client.Get(base + "/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs: %s", resp.Status)
	}
	var doc struct {
		Jobs []struct {
			ID          string  `json:"id"`
			State       string  `json:"state"`
			QueueWaitMs float64 `json:"queue_wait_ms"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	out := make(map[string]jobStatus, len(doc.Jobs))
	for _, j := range doc.Jobs {
		out[j.ID] = jobStatus{State: j.State, QueueWaitMs: j.QueueWaitMs}
	}
	return out, nil
}

func percentiles(lats []time.Duration) (p50, p99, maxMs float64) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	idx := func(p float64) int {
		i := int(p * float64(len(lats)-1))
		return i
	}
	return ms(lats[idx(0.50)]), ms(lats[idx(0.99)]), ms(lats[len(lats)-1])
}

func findDuplicates(ids []string) []string {
	seen := map[string]int{}
	for _, id := range ids {
		seen[id]++
	}
	var dups []string
	for id, n := range seen {
		if n > 1 {
			dups = append(dups, id)
		}
	}
	sort.Strings(dups)
	return dups
}
