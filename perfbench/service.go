package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"commsched/internal/core"
	"commsched/internal/experiments"
	"commsched/internal/mapping"
	"commsched/internal/obs"
	"commsched/internal/par"
	"commsched/internal/service"
	"commsched/internal/telemetry"
	"commsched/internal/topology"
)

type serviceParams struct {
	// ReferenceRate is the first rung's rate, where the latency metrics
	// are taken; the rung lasts ReferenceShare of the measured phase.
	ReferenceRate  float64 `json:"reference_rate"`
	ReferenceShare float64 `json:"reference_share"`
	// Ladder lists the rates (requests/s) climbed after the reference
	// rung, each for an equal share of the rest of the phase, until one
	// misses the limit.
	Ladder []float64 `json:"ladder"`
	// JobTailLimitMs is the latency limit on the job-latency tail.
	JobTailLimitMs float64 `json:"job_tail_limit_ms"`
	// Mix is the evaluate/schedule/sweep split of every 10 requests.
	Mix          [3]int    `json:"mix"`
	PoolSizes    []int     `json:"pool_sizes"`
	JobSizes     []int     `json:"job_sizes"`
	Degree       int       `json:"degree"`
	Clusters     int       `json:"clusters"`
	Tenants      int       `json:"tenants"`
	SweepRates   []float64 `json:"sweep_rates"`
	SweepWarmup  int       `json:"sweep_warmup"`
	SweepMeasure int       `json:"sweep_measure"`
	ScrapeEvery  float64   `json:"scrape_every_s"`
}

// svcReq is one generated request of the open loop.
type svcReq struct {
	i      int
	due    time.Time
	kind   service.JobKind
	path   string
	body   []byte
	tp     string // traceparent; its trace ID is the request ID
	expect service.EvaluateResult

	// Filled by the sender.
	sent, done time.Time
	code       int
	answer     []byte // an /evaluate response body
	jobID      string
	err        error
}

func (r *svcReq) traceID() string { return r.tp[3:35] }

// pool is the set of recurring /evaluate topologies with the oracle
// systems the answers are checked against.
type pool struct {
	docs []json.RawMessage
	sys  []*core.System
}

// buildPool generates the pool. Its topologies are the same for every
// seed (the seed varies the assignments and their order): the solve cost
// of a handful of recurring networks would otherwise dominate the spread
// between seeds.
func buildPool(p serviceParams) (*pool, error) {
	out := &pool{}
	for i, n := range p.PoolSizes {
		net, err := topology.RandomIrregular(n, p.Degree, rngFor(0, "pool", i), topology.Config{})
		if err != nil {
			return nil, err
		}
		doc, err := net.MarshalJSON()
		if err != nil {
			return nil, err
		}
		sys, err := core.NewSystem(net, core.Options{})
		if err != nil {
			return nil, err
		}
		out.docs = append(out.docs, doc)
		out.sys = append(out.sys, sys)
	}
	return out, nil
}

// genRequests generates the rung's requests: a seeded evaluate/schedule/
// sweep pattern over every block of 10, due at even intervals.
func genRequests(p serviceParams, seed int64, pl *pool, first, n int, start time.Time, rate float64) ([]*svcReq, error) {
	reqs := make([]*svcReq, n)
	for k := 0; k < n; k++ {
		i := first + k
		block := rngFor(seed, "mix", i/10).Perm(10)
		slot := block[i%10]
		rng := rngFor(seed, "req", i)
		spec := service.JobSpec{Tenant: "t" + strconv.Itoa(i%p.Tenants), Seed: rng.Int63n(1 << 30)}
		r := &svcReq{i: i, due: start.Add(time.Duration(float64(k) / rate * float64(time.Second)))}
		r.tp = traceparentFor(rng)
		switch {
		case slot < p.Mix[0]:
			j := rng.Intn(len(pl.docs))
			sys := pl.sys[j]
			part, err := mapping.Random(sys.Network().Switches(), p.Clusters, rng)
			if err != nil {
				return nil, err
			}
			// The oracle evaluates the partition the service will rebuild
			// from the assignment it receives.
			sent, err := mapping.New(part.Assign(), p.Clusters)
			if err != nil {
				return nil, err
			}
			q, err := sys.Evaluate(sent)
			if err != nil {
				return nil, err
			}
			spec.Kind, spec.Network, spec.Assign, spec.M = service.KindEvaluate, pl.docs[j], sent.Assign(), p.Clusters
			r.expect = service.EvaluateResult{FG: q.FG, DG: q.DG, Cc: q.Cc}
			r.path = "/evaluate"
		default:
			n := p.JobSizes[rng.Intn(len(p.JobSizes))]
			net, err := topology.RandomIrregular(n, p.Degree, rng, topology.Config{})
			if err != nil {
				return nil, err
			}
			if spec.Network, err = net.MarshalJSON(); err != nil {
				return nil, err
			}
			spec.Kind, spec.Clusters = service.KindSchedule, p.Clusters
			if slot >= p.Mix[0]+p.Mix[1] {
				spec.Kind = service.KindSweep
				spec.Rates, spec.WarmupCycles, spec.MeasureCycles = p.SweepRates, p.SweepWarmup, p.SweepMeasure
			}
			r.path = "/jobs"
		}
		r.kind = spec.Kind
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		r.body = body
		reqs[k] = r
	}
	return reqs, nil
}

// traceparentFor mints a W3C traceparent from the request's generator.
func traceparentFor(rng *rand.Rand) string {
	var tr [16]byte
	var sp [8]byte
	rng.Read(tr[:])
	rng.Read(sp[:])
	tr[15] |= 1
	sp[7] |= 1
	return fmt.Sprintf("00-%x-%x-01", tr, sp)
}

// timedStore wraps the daemon's JobStore: it counts terminal transitions
// per job (the exactly-once audit) and, while tracing, records a span
// around every journal write.
type timedStore struct {
	service.JobStore
	d *daemon

	mu       sync.Mutex
	terminal map[string]int
}

func (s *timedStore) write(j *service.Job, f func(*service.Job) error) error {
	t0 := time.Now()
	err := f(j)
	s.d.span("service.store_write", j.Trace, t0, time.Now())
	if j.State.Terminal() {
		s.mu.Lock()
		s.terminal[j.ID]++
		s.mu.Unlock()
	}
	return err
}

func (s *timedStore) Create(j *service.Job) error { return s.write(j, s.JobStore.Create) }
func (s *timedStore) Update(j *service.Job) error { return s.write(j, s.JobStore.Update) }

// timedRunner records a span around every job execution while tracing.
type timedRunner struct {
	service.Runner
	d *daemon
}

func (r *timedRunner) Run(ctx context.Context, job *service.Job) (json.RawMessage, service.RunInfo, error) {
	t0 := time.Now()
	res, info, err := r.Runner.Run(ctx, job)
	r.d.span("service.run", job.Trace, t0, time.Now())
	return res, info, err
}

// daemon is the service assembled the way cmd/commschedd assembles it
// (durable state directory, checkpoint root, telemetry on the API port,
// the daemon's default limits and policy, GOMAXPROCS workers), listening
// on a loopback port.
type daemon struct {
	svc   *service.Service
	store *timedStore
	hs    *http.Server
	base  string
	rec   *recorder

	tracing atomic.Bool
	roots   sync.Map // request ID -> root span ID
}

func (d *daemon) span(name, req string, start, end time.Time) {
	if !d.tracing.Load() {
		return
	}
	parent := 0
	if v, ok := d.roots.Load(req); ok {
		parent = v.(int)
	}
	d.rec.add(name, req, parent, start, end)
}

func startDaemon(state string, rec *recorder) (*daemon, error) {
	reg := telemetry.NewRegistry()
	hub := telemetry.NewHub()
	tel := telemetry.NewServer(reg, hub)
	traces := telemetry.NewTraces(0, 0)
	tel.Traces = traces
	obs.SetSink(obs.Fanout{reg, hub, traces})

	ds, err := service.OpenDurableStore(state)
	if err != nil {
		return nil, err
	}
	ckpt := service.CkptRoot(state)
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		ds.Close()
		return nil, err
	}
	d := &daemon{rec: rec}
	d.store = &timedStore{JobStore: ds, d: d, terminal: map[string]int{}}
	policy := par.Policy{Timeout: 2 * time.Minute, Retries: 1, Backoff: 100 * time.Millisecond}
	svc, err := service.New(service.Config{
		Store:     d.store,
		Runner:    &timedRunner{Runner: &service.CoreRunner{Policy: policy, CkptRoot: ckpt}, d: d},
		Limits:    service.Limits{QueueDepth: 64},
		Policy:    policy,
		CkptRoot:  ckpt,
		BatchMax:  16,
		BatchWait: 10 * time.Millisecond,
	})
	if err != nil {
		ds.Close()
		return nil, err
	}
	if err := svc.Start(context.Background()); err != nil {
		ds.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain(time.Second) //nolint:errcheck // already failing
		return nil, err
	}
	d.svc = svc
	d.hs = &http.Server{Handler: svc.Mux(tel.Handler())}
	d.base = "http://" + ln.Addr().String()
	go d.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	return d, nil
}

// stop drains the service and closes the listener, as SIGTERM does.
func (d *daemon) stop() error {
	err := d.svc.Drain(30 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if serr := d.hs.Shutdown(ctx); serr != nil {
		d.hs.Close()
	}
	obs.SetSink(nil)
	return err
}

// client is the open-loop generator's HTTP side: at most nproc
// connections, shared by the senders and the scraper.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// send performs one request and fills its response fields.
func send(c *http.Client, base string, r *svcReq) {
	req, err := http.NewRequest("POST", base+r.path, bytes.NewReader(r.body))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", r.tp)
	r.sent = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		r.err, r.done = err, time.Now()
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.code = resp.StatusCode
	if err != nil {
		r.err = err
		return
	}
	switch {
	case r.kind == service.KindEvaluate && r.code == http.StatusOK:
		var got service.EvaluateResult
		r.answer = data
		if err := json.Unmarshal(data, &got); err != nil {
			r.err = fmt.Errorf("decoding /evaluate answer: %w", err)
		} else if !near(got.FG, r.expect.FG) || !near(got.DG, r.expect.DG) || !near(got.Cc, r.expect.Cc) {
			r.err = fmt.Errorf("/evaluate answered %+v, core.System.Evaluate says %+v", got, r.expect)
		}
	case r.kind != service.KindEvaluate && r.code == http.StatusAccepted:
		var job service.Job
		if err := json.Unmarshal(data, &job); err != nil || job.ID == "" {
			r.err = fmt.Errorf("202 without a job record: %v", err)
		}
		r.jobID = job.ID
	}
}

// rungResult is one rung's accounting.
type rungResult struct {
	rate       float64
	reqs       []*svcReq
	allMs      []float64 // every request's latency from its due time
	jobMs      []float64
	evalMs     []float64
	lateMs     []float64
	refused    int
	failed     int
	backlog    []backlogSample
	growing    bool
	jobTail    tail
	excess     float64
	cpu        time.Duration // process CPU time the rung used
	passed     bool
	finishedAt map[string]time.Time
}

// runRung drives one rung of the open loop: a dispatcher releases each
// request at its due time to nproc senders, a sampler watches the
// backlog, and the rung ends when every accepted job has finished.
func (d *daemon) runRung(c *http.Client, reqs []*svcReq, rate float64, p serviceParams, conns int, traced bool) *rungResult {
	res := &rungResult{rate: rate, reqs: reqs, finishedAt: map[string]time.Time{}}
	d.tracing.Store(traced)
	defer d.tracing.Store(false)

	ch := make(chan *svcReq)
	var wg sync.WaitGroup
	var picked atomic.Int64
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ch {
				picked.Add(1)
				if traced {
					d.roots.Store(r.traceID(), d.rec.begin("client.request", r.traceID(), 0))
				}
				send(c, d.base, r)
				if traced {
					d.rec.add("client.send", r.traceID(), d.root(r), r.sent, r.done)
				}
			}
		}()
	}
	start := reqs[0].due
	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case now := <-tick.C:
				// The backlog is the generator's (requests due but not yet
				// sent) plus the service's (jobs accepted but unfinished).
				due := sort.Search(len(reqs), func(i int) bool { return reqs[i].due.After(now) })
				st := d.svc.Stats()
				res.backlog = append(res.backlog, backlogSample{At: now.Sub(start),
					Backlog: due - int(picked.Load()) + int(st.Submitted-st.Completed-st.Failed)})
			}
		}
	}()
	for _, r := range reqs {
		time.Sleep(time.Until(r.due))
		ch <- r
	}
	close(ch)
	wg.Wait()
	close(stopSampling)
	<-sampled

	// Wait for every accepted job to finish; its latency runs from its
	// due time to the record's finished_at.
	deadline := time.Now().Add(60 * time.Second)
	for _, r := range reqs {
		if r.jobID == "" {
			continue
		}
		j, err := d.waitJob(r.jobID, deadline)
		res.finishedAt[r.jobID] = j.FinishedAt
		if err != nil {
			r.err = err
		}
	}

	limitMiss := math.Inf(1)
	for _, r := range reqs {
		res.lateMs = append(res.lateMs, ms(lateness(r.due, r.sent)))
		ok2xx := r.code == http.StatusOK || r.code == http.StatusAccepted
		var lat float64
		switch {
		case r.code == http.StatusTooManyRequests || r.code == http.StatusServiceUnavailable:
			res.refused++
			lat = limitMiss
		case r.err != nil || !ok2xx:
			res.failed++
			lat = limitMiss
		case r.kind == service.KindEvaluate:
			lat = ms(r.done.Sub(r.due))
		default:
			lat = ms(res.finishedAt[r.jobID].Sub(r.due))
		}
		if traced && !math.IsInf(lat, 0) {
			end := r.done
			if r.kind != service.KindEvaluate {
				end = res.finishedAt[r.jobID]
			}
			d.rec.retime(d.root(r), r.due, end)
		}
		res.allMs = append(res.allMs, lat)
		if r.kind == service.KindEvaluate {
			res.evalMs = append(res.evalMs, lat)
		} else {
			res.jobMs = append(res.jobMs, lat)
		}
	}
	// Growth counts only while requests are still arriving; the drain
	// after the last one shrinks any backlog.
	res.backlog = withinWindow(res.backlog, reqs[len(reqs)-1].due.Sub(start))
	// The rung's excess is its worst criterion as a fraction of its limit:
	// the job tail over the latency limit, and the backlog's growth over
	// a slack of a tenth of the arrival rate.
	res.jobTail = tailOf(res.jobMs, 99)
	slack := 0.1 * rate
	slope := backlogSlope(res.backlog, 2*runtime.GOMAXPROCS(0))
	res.growing = slope > slack
	res.excess = math.Max(res.jobTail.Value/p.JobTailLimitMs, slope/slack)
	if res.refused > 0 || res.failed > 0 {
		res.excess = math.Inf(1)
	}
	res.passed = res.excess <= 1
	return res
}

func (d *daemon) root(r *svcReq) int {
	v, _ := d.roots.Load(r.traceID())
	id, _ := v.(int)
	return id
}

// scraper fetches GET /metrics once per interval until stopped.
type scraper struct {
	mu    sync.Mutex
	durMs []float64
	bytes []float64
	errs  int
	stop  chan struct{}
	done  chan struct{}
}

func startScraper(c *http.Client, base string, every time.Duration) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				t0 := time.Now()
				resp, err := c.Get(base + "/metrics")
				var n int64
				if err == nil {
					n, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("GET /metrics: %s", resp.Status)
					}
				}
				s.mu.Lock()
				if err != nil {
					s.errs++
				} else {
					s.durMs = append(s.durMs, ms(time.Since(t0)))
					s.bytes = append(s.bytes, float64(n))
				}
				s.mu.Unlock()
			}
		}
	}()
	return s
}

func (s *scraper) halt() {
	close(s.stop)
	<-s.done
}

// warmUp sends the canonical requests, whose answers are pinned, and
// waits for the jobs among them.
func (b *bench) warmUp(d *daemon, c *http.Client, p serviceParams) error {
	net16, err := experiments.Network16()
	if err != nil {
		return err
	}
	doc, err := net16.MarshalJSON()
	if err != nil {
		return err
	}
	assign := make([]int, net16.Switches())
	for s := range assign {
		assign[s] = s % p.Clusters
	}
	sys, err := core.NewSystem(net16, core.Options{})
	if err != nil {
		return err
	}
	part, err := mapping.New(assign, p.Clusters)
	if err != nil {
		return err
	}
	q, err := sys.Evaluate(part)
	if err != nil {
		return err
	}
	specs := []service.JobSpec{
		{Kind: service.KindEvaluate, Network: doc, Assign: assign, M: p.Clusters},
		{Kind: service.KindSchedule, Network: doc, Clusters: p.Clusters, Seed: experiments.ScheduleSeed},
		{Kind: service.KindSweep, Network: doc, Clusters: p.Clusters, Seed: experiments.ScheduleSeed,
			Rates: p.SweepRates, WarmupCycles: p.SweepWarmup, MeasureCycles: p.SweepMeasure},
	}
	for i, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		r := &svcReq{kind: spec.Kind, body: body, path: "/jobs", tp: traceparentFor(rngFor(0, "warmup", i))}
		if spec.Kind == service.KindEvaluate {
			r.path, r.expect = "/evaluate", service.EvaluateResult{FG: q.FG, DG: q.DG, Cc: q.Cc}
		}
		send(c, d.base, r)
		if r.err != nil || (r.code != http.StatusOK && r.code != http.StatusAccepted) {
			return fmt.Errorf("warm-up %s: HTTP %d %v", spec.Kind, r.code, r.err)
		}
		answer := r.answer
		if r.jobID != "" {
			j, err := d.waitJob(r.jobID, time.Now().Add(60*time.Second))
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", spec.Kind, err)
			}
			answer = j.Result
		}
		b.pin("canonical."+string(spec.Kind)+".sha256", sha(bytes.TrimSpace(answer)))
	}
	return nil
}

// waitJob polls the daemon's store until the job is terminal; a job that
// failed, or is still running at the deadline, is an error.
func (d *daemon) waitJob(id string, deadline time.Time) (service.Job, error) {
	for {
		j, ok := d.svc.Get(id)
		if ok && j.State.Terminal() {
			if j.State != service.StateDone {
				return j, fmt.Errorf("job %s %s: %s", j.ID, j.State, j.Error)
			}
			return j, nil
		}
		if time.Now().After(deadline) {
			return j, fmt.Errorf("job %s did not finish", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runServiceMix is the service-mix workload: an open loop against the
// daemon's HTTP API, climbing a rate ladder.
func runServiceMix(b *bench) (*outcome, error) {
	var p serviceParams
	if err := b.params(&p); err != nil {
		return nil, err
	}
	out := &outcome{layers: map[string]float64{}}
	conns := runtime.NumCPU()
	pl, err := buildPool(p)
	if err != nil {
		return nil, err
	}
	c := newClient(conns)
	defer c.CloseIdleConnections()

	var d *daemon
	out.setups, err = timeSetups(func(last bool) error {
		state, err := os.MkdirTemp(b.tmp, "state-")
		if err != nil {
			return err
		}
		if d, err = startDaemon(state, b.rec); err != nil {
			return err
		}
		if err := b.warmUp(d, c, p); err != nil {
			d.stop() //nolint:errcheck // already failing
			return err
		}
		if last {
			return nil
		}
		c.CloseIdleConnections()
		if err := d.stop(); err != nil {
			return err
		}
		return os.RemoveAll(state)
	})
	if err != nil {
		return nil, err
	}
	defer d.stop() //nolint:errcheck // the audit below has checked everything it needs

	type rung struct {
		rate, seconds float64
		traced        bool
	}
	var rungs []rung
	refSeconds := p.ReferenceShare * b.seconds.Seconds()
	rungSeconds := (b.seconds.Seconds() - refSeconds) / float64(len(p.Ladder))
	if b.tracing() {
		// The untraced twin of the reference rung prices the tracing.
		rungs = append(rungs, rung{p.ReferenceRate, refSeconds, false})
	}
	rungs = append(rungs, rung{p.ReferenceRate, refSeconds, b.tracing()})
	for _, r := range p.Ladder {
		rungs = append(rungs, rung{r, rungSeconds, b.tracing()})
	}

	batches0, coalesced0 := d.svc.Stats().Batches, d.svc.Stats().Coalesced
	sc := startScraper(c, d.base, time.Duration(p.ScrapeEvery*float64(time.Second)))
	var (
		results []*rungResult
		next    int
	)
	for k, rg := range rungs {
		n := int(rg.rate * rg.seconds)
		reqs, err := genRequests(p, b.seed, pl, next, n, time.Now().Add(50*time.Millisecond), rg.rate)
		if err != nil {
			sc.halt()
			return nil, err
		}
		next += n
		cpu0 := cpuTime()
		res := d.runRung(c, reqs, rg.rate, p, conns, rg.traced)
		res.cpu = cpuTime() - cpu0
		results = append(results, res)
		out.reportf("rung %d: %.0f req/s x %.1fs: job tail p%.1f %.1f ms, eval p50 %.1f ms, late p99 %.1f ms, refused %d, failed %d, backlog growing %v, excess %.2f",
			k, rg.rate, rg.seconds, res.jobTail.Pct, res.jobTail.Value, median(res.evalMs), tailOf(res.lateMs, 99).Value,
			res.refused, res.failed, res.growing, res.excess)
		if !res.passed {
			break
		}
	}
	sc.halt()
	maxRate, topRung := maxSustainedRate(results)

	// Audit: every accepted job reached a terminal state exactly once, and
	// every answer checked out.
	for _, res := range results {
		for _, r := range res.reqs {
			out.attempted++
			if r.err != nil || !(r.code == http.StatusOK || r.code == http.StatusAccepted) {
				out.failed++
				if r.err != nil {
					b.fail("request %d (%s): %v", r.i, r.kind, r.err)
				}
			}
		}
	}
	b.auditJobs(d, c, results)

	ref := results[0]
	if b.tracing() {
		ref = results[1]
	}
	out.opsMs = ref.allMs
	// Requests per CPU-second at the reference rate: the service's
	// capacity per core. The ladder's max rate sits on the saturation
	// cliff, where the run-to-run spread of a shared machine is too wide
	// to gate on; it is reported alongside.
	out.work, out.cpu = float64(len(ref.reqs)), ref.cpu
	jt, et := tailOf(ref.jobMs, 99), tailOf(ref.evalMs, 99)
	out.reportf("requests per CPU-second at %.0f req/s: %.3f", ref.rate, out.work/out.cpu.Seconds())
	out.reportf("max_rate_per_s: %.3f (highest rung meeting the %.0f ms job tail limit: %.0f req/s)", maxRate, p.JobTailLimitMs, topRung)
	out.reportf("job_p50_ms %.3f, job_p99_ms (p%.1f of %d) %.3f; evaluate_p50_ms %.3f, evaluate_p99_ms (p%.1f of %d) %.3f at %.0f req/s",
		median(ref.jobMs), jt.Pct, jt.N, jt.Value, median(ref.evalMs), et.Pct, et.N, et.Value, ref.rate)
	if maxRate == 0 {
		b.fail("the reference rung (%.0f req/s) missed the latency limit", p.ReferenceRate)
	}

	if b.tracing() {
		st := d.svc.Stats()
		prof := profile(b.rec.snapshot())
		var submit, queue, late []float64
		var rejected, evals int
		for _, res := range results[1:] {
			for _, r := range res.reqs {
				if r.kind == service.KindEvaluate {
					evals++
				} else if !r.done.IsZero() {
					submit = append(submit, ms(r.done.Sub(r.sent)))
				}
				if r.jobID != "" {
					if j, ok := d.svc.Get(r.jobID); ok {
						queue = append(queue, j.QueueWaitMs)
					}
				}
			}
			late = append(late, res.lateMs...)
			rejected += res.refused
		}
		out.layers["service.submit_ms_p50"] = median(submit)
		out.layers["service.submit_ms_p99"] = tailOf(submit, 99).Value
		out.layers["service.store_write_ms_p50"] = prof.p50("service.store_write")
		out.layers["service.store_write_ms_p99"] = prof.tailMs("service.store_write")
		out.layers["service.queue_wait_ms_p50"] = median(queue)
		out.layers["service.queue_wait_ms_p99"] = tailOf(queue, 99).Value
		out.layers["service.runner_ms_p50"] = prof.p50("service.run")
		out.layers["service.eval_batches"] = float64(st.Batches - batches0)
		if evals > 0 {
			out.layers["service.eval_coalesce_ratio"] = float64(st.Coalesced-coalesced0) / float64(evals)
		}
		out.layers["service.rejected"] = float64(rejected)
		out.layers["telemetry.scrape_ms_p50"] = median(sc.durMs)
		out.layers["telemetry.scrape_bytes"] = median(sc.bytes)
		out.layers["bench.gen_late_ms_p99"] = tailOf(late, 99).Value
		out.layers["bench.trace_overhead"] = median(results[1].allMs)/median(results[0].allMs) - 1
		out.layers["service.max_rate_per_s"] = maxRate
	}
	if sc.errs > 0 {
		b.fail("%d GET /metrics scrape(s) failed", sc.errs)
	}
	return out, nil
}

// auditJobs checks the daemon's ledger against the generator's: every
// accepted job is listed once, is done, was finished exactly once, and a
// sample of schedule results is re-derived from core.
func (b *bench) auditJobs(d *daemon, c *http.Client, results []*rungResult) {
	resp, err := c.Get(d.base + "/jobs")
	if err != nil {
		b.fail("GET /jobs: %v", err)
		return
	}
	var doc struct {
		Jobs []service.Job `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		b.fail("GET /jobs: %v", err)
		return
	}
	listed := map[string]int{}
	for _, j := range doc.Jobs {
		listed[j.ID]++
		if j.Attempts != 1 {
			b.fail("job %s ran %d times", j.ID, j.Attempts)
		}
	}
	d.store.mu.Lock()
	terminal := d.store.terminal
	d.store.mu.Unlock()
	checked := 0
	for _, res := range results {
		for _, r := range res.reqs {
			if r.jobID == "" {
				continue
			}
			if listed[r.jobID] != 1 {
				b.fail("job %s listed %d times", r.jobID, listed[r.jobID])
			}
			if terminal[r.jobID] != 1 {
				b.fail("job %s reached a terminal state %d times", r.jobID, terminal[r.jobID])
			}
			if r.kind == service.KindSchedule && checked < 8 {
				checked++
				b.checkSchedule(d, r)
			}
		}
	}
}

// checkSchedule re-evaluates a schedule job's partition on its own
// network through core and compares the quality it reported.
func (b *bench) checkSchedule(d *daemon, r *svcReq) {
	j, ok := d.svc.Get(r.jobID)
	if !ok {
		return
	}
	var res service.ScheduleResult
	if err := json.Unmarshal(j.Result, &res); err != nil {
		b.fail("job %s result: %v", j.ID, err)
		return
	}
	net, err := j.Spec.ResolveNetwork()
	if err != nil {
		b.fail("job %s network: %v", j.ID, err)
		return
	}
	sys, err := core.NewSystem(net, core.Options{})
	if err != nil {
		b.fail("job %s: %v", j.ID, err)
		return
	}
	part, err := mapping.New(res.Assign, res.M)
	if err != nil {
		b.fail("job %s partition: %v", j.ID, err)
		return
	}
	q, err := sys.Evaluate(part)
	if err != nil || !near(q.Cc, res.Cc) || !near(q.FG, res.FG) {
		b.fail("job %s reported cc=%v fg=%v, core.System.Evaluate says %+v (%v)", j.ID, res.Cc, res.FG, q, err)
	}
}

// maxSustainedRate is the highest rate whose rung meets every limit:
// job tail within the latency limit, no refusals, no growing backlog.
// Between the last rung that met them and the first that missed, the rate
// is interpolated linearly in the rungs' excess (worst criterion over its
// limit), so the figure moves continuously instead of by rung steps. It
// also returns the last passing rung's rate.
func maxSustainedRate(rungs []*rungResult) (rate, rung float64) {
	for i, r := range rungs {
		if r.passed {
			continue
		}
		if i == 0 {
			return 0, 0
		}
		prev := rungs[i-1]
		if math.IsInf(r.excess, 0) {
			return prev.rate, prev.rate
		}
		frac := (1 - prev.excess) / (r.excess - prev.excess)
		return prev.rate + frac*(r.rate-prev.rate), prev.rate
	}
	last := rungs[len(rungs)-1].rate
	return last, last
}

// near compares two computed coefficients to a relative 1e-9: the search
// accumulates F_G in its own order, and the distance solve on large
// networks is parallel, so equal answers may differ in the last bits.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }
