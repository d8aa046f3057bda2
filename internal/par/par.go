// Package par provides the bounded-worker fan-out pattern used by every
// parallel loop in the module: GOMAXPROCS workers pull indices from an
// atomic counter, the first error (or recovered panic) cancels the rest,
// and a context cancellation is honored between items. Results are
// written by index, so a parallel loop is observably identical to the
// sequential one it replaces. A worker's per-loop state (Local) is built
// on the worker's own goroutine, so its scratch is allocated where it is
// used rather than beside the other workers'.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"commsched/internal/obs"
)

// ForEach runs fn(ctx, i) for every i in [0, n) across at most
// min(GOMAXPROCS, n) goroutines and returns the first error. A nil ctx
// means Background; cancellation stops workers between items and is
// surfaced as the (wrapped) context error. A panicking fn is recovered
// into an error instead of crashing the process. fn must write its result
// into caller-owned storage at index i; distinct indices never race.
//
// When a process-wide Policy is installed (SetPolicy), each item runs
// under it: a per-attempt deadline and bounded retries with backoff.
// The error budget is the domain of ForEachPartial; here any
// permanently-failed item still aborts the loop.
func ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if CurrentPolicy().Active() {
		inner := fn
		fn = func(ctx context.Context, i int) error {
			return RunUnit(ctx, "par.foreach", i, func(ctx context.Context) error { return inner(ctx, i) })
		}
	}
	return runLoop(ctx, "par.foreach", n, fn)
}

// rootCtx is the process-wide root context installed by SetRootContext.
// A nil ctx passed to ForEach/ForEachPartial resolves to it, so deep
// experiment loops that predate context threading become cancellable
// (Ctrl-C, SIGTERM) without a signature change on every call path.
var rootCtx atomic.Pointer[context.Context]

// SetRootContext installs the context that a nil ctx resolves to in this
// package (commands install their signal-bound root context here via
// runctl). A nil argument restores context.Background.
func SetRootContext(ctx context.Context) {
	if ctx == nil {
		rootCtx.Store(nil)
		return
	}
	rootCtx.Store(&ctx)
}

// RootContext returns the installed root context (Background when none).
func RootContext() context.Context {
	if p := rootCtx.Load(); p != nil {
		return *p
	}
	return context.Background()
}

// forEach is the local executor: Local with a par.item span and a
// progress event per item when observability is on, and no unit policy.
func forEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	var count struct{ workers, done atomic.Int64 } // the workers share both: one allocation
	nextWorker := func() int { return int(count.workers.Add(1)) - 1 }
	return Local(ctx, n, nextWorker, func(ctx context.Context, worker, i int) error {
		if !obs.Enabled() {
			return fn(ctx, i)
		}
		// Items are coarse (a full simulation run, a search restart), so a
		// per-item span is cheap relative to the work; the worker field
		// maps the item onto its worker's thread lane in the Chrome trace
		// view, and the derived context hands each item its own span as
		// parent so nested instrumentation trees under the right item.
		sp, ictx := obs.StartSpanCtx(ctx, "par.item", obs.F("worker", worker), obs.F("index", i))
		err := fn(ictx, i)
		sp.End(obs.F("err", err != nil))
		obs.Progress("par.foreach", count.done.Add(1), int64(n))
		return err
	})
}

// Local runs fn(ctx, state, i) for every i in [0, n) across at most
// min(GOMAXPROCS, n) goroutines of this process and returns the first
// error. It is the package's only bounded-worker loop: ForEach and
// ForEachPartial reach it through the local executor. newState is
// called once per worker, on that worker's goroutine before it takes an
// item, and the worker passes its state to every item it takes, so fn
// can keep scratch there without locking. Workers call newState
// concurrently: built where it is used, a worker's scratch comes from
// the allocation cache of the P that runs it, not packed beside the
// other workers' scratch where their writes would share cache lines. A
// nil ctx means the root context; cancellation stops workers between
// items and is surfaced as the (wrapped) context error. A panicking
// newState or fn is recovered into an error. Local ignores the installed
// Executor and Policy and records nothing per item, so it suits
// fine-grained items.
func Local[S any](ctx context.Context, n int, newState func() S, fn func(ctx context.Context, state S, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		// Not ctx = RootContext(): the workers would then capture a
		// reassigned ctx by reference, one more allocation per loop.
		return Local(RootContext(), n, newState, fn)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Pointer[error]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail(&failed, fmt.Errorf("par: worker panic: %v", r))
				}
			}()
			state := newState()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() != nil {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(&failed, fmt.Errorf("par: cancelled at item %d: %w", i, err))
					return
				}
				if err := fn(ctx, state, i); err != nil {
					fail(&failed, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if errp := failed.Load(); errp != nil {
		return *errp
	}
	return nil
}

// fail records err as the loop's error unless one is already recorded.
// Taking the address of the parameter moves only a failure's error to
// the heap, not every item's.
func fail(failed *atomic.Pointer[error], err error) {
	failed.CompareAndSwap(nil, &err)
}
