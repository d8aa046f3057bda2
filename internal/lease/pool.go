package lease

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"commsched/internal/obs"
	"commsched/internal/par"
	"commsched/internal/runstate"
)

// PoolOptions tune the distributed pool; the zero value is sensible.
type PoolOptions struct {
	// Speculate enables duplicate execution of stragglers: a unit held by
	// another worker longer than SpecFactor × the p95 duration of
	// completed siblings is re-run here under a fresh fencing token.
	Speculate bool
	// SpecFactor scales the straggler threshold (default 2.0).
	SpecFactor float64
	// Slots bounds the local goroutines executing units (default
	// GOMAXPROCS).
	Slots int
}

// PoolStats snapshots the pool's counters: the lease manager's protocol
// stats plus the pool's own execution accounting.
type PoolStats struct {
	Stats
	// Executed counts units this worker computed under a lease.
	Executed int64 `json:"executed"`
	// Replayed counts units another worker completed that this worker
	// replayed from the shared store.
	Replayed int64 `json:"replayed"`
	// SpecRuns/SpecWins/SpecLosses count speculative duplicate executions
	// and whether they beat the original holder to the done marker.
	SpecRuns   int64 `json:"spec_runs"`
	SpecWins   int64 `json:"spec_wins"`
	SpecLosses int64 `json:"spec_losses"`
	// Wait is the slot time spent without progress: every unit left
	// was held by a sibling, summed over the slots.
	Wait time.Duration `json:"wait_ns"`
}

// Pool is the lease-backed par.Executor: every worker process runs the
// same deterministic program, and when a loop reaches the pool its
// units are fanned out across the workers sharing the checkpoint
// directory. Units are claimed through Manager leases, results land in
// the shared runstate journals under fencing tokens, and a unit
// completed remotely is replayed locally from the merged store — so
// every worker still materializes the full result set, byte-identical
// to a serial run.
type Pool struct {
	m    *Manager
	opts PoolOptions

	// seq numbers loops per (name, n, scope) identity. All workers run
	// the identical program, so their sequence counters agree and the
	// derived loop IDs (and thus unit IDs) match across processes.
	seqMu sync.Mutex
	seq   map[string]int

	executed   atomic.Int64
	replayed   atomic.Int64
	specRuns   atomic.Int64
	specWins   atomic.Int64
	specLosses atomic.Int64
	waitNs     atomic.Int64
}

// NewPool wraps a lease manager in a par.Executor.
func NewPool(m *Manager, opts PoolOptions) *Pool {
	if opts.SpecFactor <= 0 {
		opts.SpecFactor = 2.0
	}
	return &Pool{m: m, opts: opts, seq: make(map[string]int)}
}

// Manager returns the pool's lease manager.
func (p *Pool) Manager() *Manager { return p.m }

// Stats snapshots the pool and manager counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Stats:      p.m.Stats(),
		Executed:   p.executed.Load(),
		Replayed:   p.replayed.Load(),
		SpecRuns:   p.specRuns.Load(),
		SpecWins:   p.specWins.Load(),
		SpecLosses: p.specLosses.Load(),
		Wait:       time.Duration(p.waitNs.Load()),
	}
}

// Summary renders the one-line end-of-run accounting commands print.
func (s PoolStats) Summary() string {
	return fmt.Sprintf("lease: %d executed (%d stolen), %d replayed, %d reclaimed, %d lost, %d conflicts, %d speculated (%d wins)",
		s.Executed, s.Stolen, s.Replayed, s.Reclaimed, s.Lost, s.Conflicts, s.SpecRuns, s.SpecWins)
}

// loopRun is the per-RunLoop shared state of the local slots.
type loopRun struct {
	loop string
	n    int
	fn   func(ctx context.Context, i int) error

	cancel context.CancelFunc

	mu sync.Mutex
	// todo holds indices not yet run locally. A slot removes an index
	// before working on it and re-adds it when the unit turns out to be
	// remote-held (or its lease was lost mid-run).
	todo map[int]bool
	// waitingSince records when an index was first found remote-held —
	// the straggler clock speculation compares against.
	waitingSince map[int]time.Time
	// durations collects completed-unit wall times (local executions and
	// remote ones via done-marker dur) for the straggler quantile.
	durations []time.Duration

	completed atomic.Int64
	failed    atomic.Pointer[error]
}

func (r *loopRun) unitID(i int) string { return fmt.Sprintf("%s/i%06d", r.loop, i) }

func (r *loopRun) fail(err error) {
	if r.failed.CompareAndSwap(nil, &err) {
		r.cancel()
	}
}

// claim removes i from todo, reporting whether this slot got it.
func (r *loopRun) claim(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.todo[i] {
		return false
	}
	delete(r.todo, i)
	return true
}

// requeue returns a remote-held (or fenced-off) index to todo, starting
// its straggler clock on first sight.
func (r *loopRun) requeue(i int, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.todo[i] = true
	if _, ok := r.waitingSince[i]; !ok {
		r.waitingSince[i] = now
	}
}

func (r *loopRun) complete(i int, dur time.Duration) {
	r.mu.Lock()
	r.durations = append(r.durations, dur)
	delete(r.waitingSince, i)
	r.mu.Unlock()
	if obs.Enabled() {
		obs.Progress("lease.loop", r.completed.Add(1), int64(r.n))
	} else {
		r.completed.Add(1)
	}
}

// RunLoop implements par.Executor: fn(ctx, i) runs locally for every i
// in [0, n) — computed under a lease when this worker claims the unit,
// replayed from the shared store when a sibling completed it first.
func (p *Pool) RunLoop(ctx context.Context, name string, n int, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	loop := p.loopID(ctx, name, n)
	sp, ctx := obs.StartSpanCtx(ctx, "lease.loop",
		obs.F("loop", loop), obs.F("n", n), obs.F("worker", p.m.Owner()))
	err := p.runLoop(ctx, loop, n, fn)
	sp.End(obs.F("err", err != nil))
	p.emitStatus()
	return err
}

// loopID derives the cluster-wide identity of this loop invocation from
// its name, size, the ambient runstate scope, and a per-identity
// sequence number. It contains no per-process state: because every
// worker executes the identical deterministic program (the shared
// store's identity file enforces matching command lines), the k-th loop
// of a given shape gets the same ID everywhere.
func (p *Pool) loopID(ctx context.Context, name string, n int) string {
	scope := runstate.ScopeFrom(ctx)
	key := fmt.Sprintf("%s|%d|%s", name, n, scope)
	p.seqMu.Lock()
	seq := p.seq[key]
	p.seq[key]++
	p.seqMu.Unlock()
	h := fnv.New64a()
	h.Write([]byte(scope))
	return fmt.Sprintf("%s~%d~%016x~%d", name, n, h.Sum64(), seq)
}

func (p *Pool) runLoop(parent context.Context, loop string, n int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	r := &loopRun{
		loop: loop, n: n, fn: fn, cancel: cancel,
		todo:         make(map[int]bool, n),
		waitingSince: make(map[int]time.Time),
	}
	for i := 0; i < n; i++ {
		r.todo[i] = true
	}

	// Keep the worker-registry entry fresh for the whole loop so idle
	// siblings keep counting this worker as live.
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(p.heartbeatEvery())
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				_ = p.m.Heartbeat()
			}
		}
	}()

	slots := p.opts.Slots
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	if slots > n {
		slots = n
	}
	var wg sync.WaitGroup
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					err := fmt.Errorf("lease: slot panic: %v", rec)
					r.fail(err)
				}
			}()
			idle := p.newWaiter(ctx, r.loop, slot)
			defer idle.end()
			for {
				if r.failed.Load() != nil || ctx.Err() != nil {
					return
				}
				work, empty := p.step(ctx, r)
				if empty {
					return
				}
				if work == nil {
					idle.sleep()
					continue
				}
				idle.end()
				work()
			}
		}(w)
	}
	wg.Wait()
	close(hbStop)
	hbWG.Wait()

	if errp := r.failed.Load(); errp != nil {
		return *errp
	}
	if err := parent.Err(); err != nil && r.completed.Load() < int64(n) {
		return fmt.Errorf("lease: loop %s cancelled: %w", loop, err)
	}
	return nil
}

func (p *Pool) heartbeatEvery() time.Duration {
	d := p.m.TTL() / 3
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

func (p *Pool) pollEvery() time.Duration {
	d := p.m.TTL() / 4
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// waiter paces one slot while every unit it has left is held by a
// sibling. The sleep starts at a millisecond and doubles after each
// unproductive step up to pollEvery, so an idle slot sees a sibling's
// done marker within about the time it has waited so far, at O(log)
// extra reads of the shared directory per wait. Each stretch without
// progress is one lease.wait span and adds to the pool's wait total.
type waiter struct {
	p    *Pool
	ctx  context.Context
	loop string
	// rng jitters each sleep by ×[0.5, 1.5) to decorrelate the workers'
	// polls, so reclaim stampedes after a crash spread out; the seed is
	// the worker identity, so a run's timing is reproducible per worker.
	rng     *rand.Rand
	backoff time.Duration
	start   time.Time // zero outside a stretch
	polls   int
	span    *obs.Span
}

func (p *Pool) newWaiter(ctx context.Context, loop string, slot int) *waiter {
	return &waiter{p: p, ctx: ctx, loop: loop, backoff: time.Millisecond,
		rng: rand.New(rand.NewSource(int64(ownerHash(p.m.Owner())) + int64(slot)))}
}

// sleep follows an unproductive step: it opens a stretch if none is
// open, then sleeps the jittered backoff and doubles it.
func (w *waiter) sleep() {
	if w.start.IsZero() {
		w.start = time.Now()
		w.span, _ = obs.StartSpanCtx(w.ctx, "lease.wait",
			obs.F("loop", w.loop), obs.F("worker", w.p.m.Owner()))
	}
	w.polls++
	t := time.NewTimer(time.Duration(float64(w.backoff) * (0.5 + w.rng.Float64())))
	defer t.Stop()
	w.backoff = min(2*w.backoff, w.p.pollEvery())
	select {
	case <-w.ctx.Done():
	case <-t.C:
	}
}

// end closes the open stretch, if any, and resets the backoff.
func (w *waiter) end() {
	w.backoff = time.Millisecond
	if w.start.IsZero() {
		return
	}
	w.p.waitNs.Add(int64(time.Since(w.start)))
	w.span.End(obs.F("polls", w.polls))
	w.start, w.polls, w.span = time.Time{}, 0, nil
}

// step makes one scheduling decision for a slot: replay a unit someone
// finished, claim (own/steal/reclaim) a free one, or — when everything
// left is validly held elsewhere — maybe speculate on a straggler. It
// returns the work it decided on (nil when there is none yet), and
// whether the loop has nothing left to hand out.
func (p *Pool) step(ctx context.Context, r *loopRun) (work func(), empty bool) {
	cands := p.candidates(r)
	if cands == nil {
		return nil, true
	}
	now := time.Now()
	for _, c := range cands {
		if !r.claim(c.i) {
			continue
		}
		unit := r.unitID(c.i)
		l, err := p.m.Acquire(unit, c.stolen)
		switch {
		case errors.Is(err, ErrHeld):
			r.requeue(c.i, now)
			continue
		case errors.Is(err, ErrDone):
			rec, _ := p.m.Done(unit)
			return func() { p.replay(ctx, r, c.i, rec) }, false
		case err != nil:
			return func() { r.fail(err) }, false
		}
		return func() { p.execute(ctx, r, c.i, l) }, false
	}
	if p.opts.Speculate {
		if i, ok := p.pickStraggler(r, now); ok {
			return func() { p.speculateOn(ctx, r, i) }, false
		}
	}
	return nil, false
}

type candidate struct {
	i      int
	stolen bool
}

// candidates lists the slot's work, own-partition units first. The
// preferred owner of unit i is liveWorkers[i mod W] over the sorted live
// set — a deterministic striping every worker computes identically, so
// claims rarely collide while every unit always has a live preferred
// owner. Claiming outside the stripe is stealing (accounting only).
// Returns nil when the loop's todo set is empty.
func (p *Pool) candidates(r *loopRun) []candidate {
	live := p.m.LiveWorkers(3 * p.m.TTL())
	r.mu.Lock()
	idxs := make([]int, 0, len(r.todo))
	for i := range r.todo {
		idxs = append(idxs, i)
	}
	r.mu.Unlock()
	if len(idxs) == 0 {
		return nil
	}
	sort.Ints(idxs)
	own := make([]candidate, 0, len(idxs))
	var oth []candidate
	for _, i := range idxs {
		if live[i%len(live)] == p.m.Owner() {
			own = append(own, candidate{i: i})
		} else {
			oth = append(oth, candidate{i: i, stolen: true})
		}
	}
	return append(own, oth...)
}

// replay runs fn for a unit a sibling already completed. The shared
// store is refreshed first, so the unit's checkpoint lookups hit the
// sibling's journaled results and the execution is (nearly) free.
func (p *Pool) replay(ctx context.Context, r *loopRun, i int, rec Record) {
	unit := r.unitID(i)
	sp, uctx := obs.StartSpanCtx(ctx, "lease.unit",
		obs.F("unit", unit), obs.F("mode", string(ModeReplay)),
		obs.F("token", rec.Token), obs.F("worker", p.m.Owner()))
	err := runstate.Refresh()
	if err == nil {
		err = r.fn(par.WithExecutorScope(uctx), i)
	}
	sp.End(obs.F("err", err != nil))
	if err != nil {
		r.fail(err)
		return
	}
	p.replayed.Add(1)
	r.complete(i, time.Duration(rec.Dur))
}

// execute runs fn under a held lease, renewing it on a heartbeat. A
// renewal that comes back ErrLost fences the unit off: its context is
// cancelled, its claim discarded, and the index requeued — the
// successor's result will be replayed instead. Journal writes the
// zombie already made carry its stale token and lose the merge.
func (p *Pool) execute(ctx context.Context, r *loopRun, i int, l *Lease) {
	unit := r.unitID(i)
	sp, uctx := obs.StartSpanCtx(ctx, "lease.unit",
		obs.F("unit", unit), obs.F("mode", string(l.Mode)),
		obs.F("token", l.Token), obs.F("worker", p.m.Owner()))
	uctx, cancelUnit := context.WithCancel(uctx)
	defer cancelUnit()
	uctx = runstate.WithToken(par.WithExecutorScope(uctx), l.Token)

	var lost atomic.Bool
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(p.heartbeatEvery())
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-uctx.Done():
				return
			case <-t.C:
				if err := p.m.Renew(l); errors.Is(err, ErrLost) {
					lost.Store(true)
					cancelUnit()
					return
				}
			}
		}
	}()

	start := time.Now()
	err := r.fn(uctx, i)
	close(hbStop)
	hbWG.Wait()
	dur := time.Since(start)

	if err != nil && lost.Load() && ctx.Err() == nil {
		// Fenced off mid-unit: not a failure, just a lost race with our
		// own presumed death. The successor finishes the unit.
		sp.End(obs.F("lost", true))
		r.requeue(i, time.Now())
		return
	}
	if err != nil {
		// A permanent unit failure (retries already spent inside fn). The
		// done marker carries the error so siblings stop waiting for a
		// success that deterministically cannot come.
		_, _ = p.m.MarkDone(unit, l.Token, dur, err)
		p.m.Release(l)
		sp.End(obs.F("err", true))
		r.fail(err)
		return
	}
	_, derr := p.m.MarkDone(unit, l.Token, dur, nil)
	p.m.Release(l)
	sp.End(obs.F("err", derr != nil), obs.F("dur_ms", float64(dur)/float64(time.Millisecond)))
	if derr != nil {
		r.fail(derr)
		return
	}
	p.executed.Add(1)
	r.complete(i, dur)
}

// pickStraggler finds a remote-held unit this worker has watched for
// longer than SpecFactor × the p95 of completed-unit durations. Needs at
// least 3 completed siblings for the quantile to mean anything.
func (p *Pool) pickStraggler(r *loopRun, now time.Time) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.durations) < 3 {
		return 0, false
	}
	ds := make([]time.Duration, len(r.durations))
	copy(ds, r.durations)
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	p95 := ds[(len(ds)*95)/100]
	threshold := time.Duration(p.opts.SpecFactor * float64(p95))
	idxs := make([]int, 0, len(r.todo))
	for i := range r.todo {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		if ws, ok := r.waitingSince[i]; ok && now.Sub(ws) > threshold {
			delete(r.todo, i) // claim for speculation
			return i, true
		}
	}
	return 0, false
}

// speculateOn duplicates a straggling unit without taking its lease,
// under a fresh (necessarily higher) fencing token. First completion
// wins the done marker; determinism makes the duplicate byte-identical,
// so losing costs nothing but the cycles.
func (p *Pool) speculateOn(ctx context.Context, r *loopRun, i int) {
	unit := r.unitID(i)
	tok, err := p.m.AllocToken()
	if err != nil {
		r.fail(err)
		return
	}
	p.specRuns.Add(1)
	sp, uctx := obs.StartSpanCtx(ctx, "lease.unit",
		obs.F("unit", unit), obs.F("mode", string(ModeSpeculate)),
		obs.F("token", tok), obs.F("worker", p.m.Owner()))
	uctx = runstate.WithToken(par.WithExecutorScope(uctx), tok)
	start := time.Now()
	err = r.fn(uctx, i)
	dur := time.Since(start)
	if err != nil {
		sp.End(obs.F("err", true))
		r.fail(err)
		return
	}
	won, derr := p.m.MarkDone(unit, tok, dur, nil)
	sp.End(obs.F("err", derr != nil), obs.F("won", won))
	if derr != nil {
		r.fail(derr)
		return
	}
	if won {
		p.specWins.Add(1)
	} else {
		p.specLosses.Add(1)
	}
	if obs.Enabled() {
		obs.Event("lease.speculate", obs.F("unit", unit),
			obs.F("token", tok), obs.F("won", won),
			obs.F("dur_ms", float64(dur)/float64(time.Millisecond)))
	}
	p.executed.Add(1)
	r.complete(i, dur)
}

// emitStatus publishes the pool counters as a lease.status event; the
// telemetry registry lifts its numeric fields into the
// commsched_lease_* gauge family at /metrics.
func (p *Pool) emitStatus() {
	if !obs.Enabled() {
		return
	}
	s := p.Stats()
	obs.Event("lease.status",
		obs.F("worker", p.m.Owner()),
		obs.F("acquired", s.Acquired),
		obs.F("stolen", s.Stolen),
		obs.F("reclaimed", s.Reclaimed),
		obs.F("lost", s.Lost),
		obs.F("conflicts", s.Conflicts),
		obs.F("expired", s.Expired),
		obs.F("renewals", s.Renewals),
		obs.F("executed", s.Executed),
		obs.F("replayed", s.Replayed),
		obs.F("spec_runs", s.SpecRuns),
		obs.F("spec_wins", s.SpecWins),
		obs.F("spec_losses", s.SpecLosses),
		obs.F("wait_ms", float64(s.Wait)/float64(time.Millisecond)))
}

func ownerHash(owner string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(owner))
	return h.Sum64()
}
