package par

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"commsched/internal/obs"
)

// Policy is the per-unit robustness policy applied by RunUnit (and
// therefore by ForEach/ForEachPartial): a deadline for each attempt,
// a bounded number of retries with exponential backoff + jitter for
// units that fail, panic, or time out, and an error budget after which
// ForEachPartial stops retrying and salvages what it has. The zero
// Policy disables all of it — exactly the historical behavior.
type Policy struct {
	// Timeout bounds each attempt via context.WithTimeout. Enforcement
	// is cooperative: the unit must honor its context (all simulation
	// and search loops in this module do). Zero means no deadline.
	Timeout time.Duration
	// Retries is how many additional attempts a failed unit gets.
	Retries int
	// Backoff is the base delay before the first retry; attempt k waits
	// Backoff * 2^k scaled by a jitter factor in [0.5, 1.5). Zero with
	// Retries > 0 retries immediately.
	Backoff time.Duration
	// ErrorBudget is the number of units ForEachPartial lets fail (after
	// their retries) before it aborts the remainder of the loop. Zero
	// means no budget: any failed unit aborts, like ForEach.
	ErrorBudget int
	// Seed perturbs the per-unit backoff jitter. Every unit derives its
	// own RNG from (Seed, unit name, unit index), so a unit's retry
	// schedule is identical across runs and resumes no matter how the
	// loop's workers interleave — while distinct units still decorrelate.
	Seed int64
}

// Active reports whether the policy changes anything over the zero value.
func (p Policy) Active() bool {
	return p.Timeout > 0 || p.Retries > 0 || p.ErrorBudget > 0
}

var policy atomic.Pointer[Policy]

// SetPolicy installs the process-wide unit policy (commands plumb their
// -timeout/-retries/-errorbudget flags here). A nil pointer — or the
// zero Policy — restores the default fail-fast behavior.
func SetPolicy(p Policy) {
	if !p.Active() {
		policy.Store(nil)
		return
	}
	policy.Store(&p)
}

// CurrentPolicy returns the installed policy (zero when none).
func CurrentPolicy() Policy {
	if p := policy.Load(); p != nil {
		return *p
	}
	return Policy{}
}

// retried and salvaged are process-lifetime counters for the commands'
// end-of-run warning lines ("N units salvaged as incomplete").
var (
	retriedCount  atomic.Int64
	salvagedCount atomic.Int64
)

// Retried returns how many unit attempts were retried so far.
func Retried() int64 { return retriedCount.Load() }

// Salvaged returns how many units exhausted their retries and were
// dropped under an error budget (their results are tagged incomplete).
func Salvaged() int64 { return salvagedCount.Load() }

// ResetCounters zeroes the retry/salvage counters (tests only).
func ResetCounters() {
	retriedCount.Store(0)
	salvagedCount.Store(0)
}

// RunUnit executes one unit of work under the installed policy: each
// attempt gets its own deadline, a panic is recovered into an error, and
// failures are retried with exponential backoff + jitter until the
// retry budget runs out. Cancellation of the outer ctx is never retried
// — a cancelled run must stop, not thrash.
func RunUnit(ctx context.Context, name string, i int, fn func(ctx context.Context) error) error {
	return CurrentPolicy().RunUnit(ctx, name, i, fn)
}

// RunUnit executes one unit under this specific policy, regardless of
// what (if anything) is installed process-wide — the form long-lived
// services use to give every job its own deadlines and retry budgets
// without fighting over a global. When observability is on, the unit
// runs inside a "par.unit" span chained to the caller's trace, so every
// retry and timeout lands under the job that caused it.
func (p Policy) RunUnit(ctx context.Context, name string, i int, fn func(ctx context.Context) error) error {
	sp, ctx := obs.StartSpanCtx(ctx, "par.unit", obs.F("unit", name), obs.F("index", i))
	err := p.runUnit(ctx, name, i, fn)
	sp.End(obs.F("err", err != nil))
	return err
}

func (p Policy) runUnit(ctx context.Context, name string, i int, fn func(ctx context.Context) error) error {
	if !p.Active() {
		return runAttempt(ctx, fn)
	}
	// One jitter RNG per unit, seeded from the unit's identity alone.
	// Attempt k draws the k-th value, so the whole retry schedule of a
	// unit is a pure function of (policy seed, name, index) — never of
	// which worker ran it or what its neighbors were doing.
	var jitter *rand.Rand
	if p.Backoff > 0 {
		jitter = rand.New(rand.NewSource(unitSeed(p.Seed, name, i)))
	}
	var err error
	for attempt := 0; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.Timeout)
		}
		err = runAttempt(actx, fn)
		cancel()
		if err == nil {
			return nil
		}
		// An outer cancellation is a command to stop; only unit-local
		// failures (panics, timeouts, real errors) are retryable.
		if ctx.Err() != nil {
			return err
		}
		if attempt >= p.Retries {
			return fmt.Errorf("par: unit %s[%d] failed after %d attempt(s): %w", name, i, attempt+1, err)
		}
		retriedCount.Add(1)
		if obs.Enabled() {
			obs.EventCtx(ctx, "par.retry",
				obs.F("value", retriedCount.Load()),
				obs.F("unit", fmt.Sprintf("%s[%d]", name, i)),
				obs.F("attempt", attempt+1),
				obs.F("err", err.Error()))
		}
		if p.Backoff > 0 {
			if serr := sleepBackoff(ctx, p.Backoff, attempt, jitter); serr != nil {
				return err
			}
		}
	}
}

// runAttempt invokes fn with panic recovery.
func runAttempt(ctx context.Context, fn func(ctx context.Context) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("par: unit panic: %v", r)
		}
	}()
	return fn(ctx)
}

// unitSeed folds the policy seed, unit name, and unit index into the
// seed of the unit's jitter RNG (FNV-1a over the identity). Jitter
// perturbs only timing, never results, so determinism of the science is
// untouched either way — but a seeded schedule is reproducible when a
// retry storm needs debugging under -resume.
func unitSeed(policySeed int64, name string, i int) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h ^= uint64(b); h *= prime64 }
	for j := 0; j < len(name); j++ {
		mix(name[j])
	}
	for _, v := range [2]uint64{uint64(i), uint64(policySeed)} {
		for b := 0; b < 8; b++ {
			mix(byte(v >> (8 * b)))
		}
	}
	return int64(h)
}

// backoffDelay is the wait before retry attempt+1: base * 2^attempt,
// clamped to 30 s (an overflowing shift clamps too), scaled by the unit
// RNG's next jitter draw in [0.5, 1.5).
func backoffDelay(base time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base << uint(attempt)
	const maxBackoff = 30 * time.Second
	if d <= 0 || d > maxBackoff {
		d = maxBackoff
	}
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}

// sleepBackoff waits backoffDelay, returning early (with the ctx error)
// when the run is cancelled.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int, rng *rand.Rand) error {
	t := time.NewTimer(backoffDelay(base, attempt, rng))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// BackoffSchedule returns the exact backoff delays a unit would sleep
// under the policy — attempt k's delay before retry k+1 — without
// sleeping. Exposed so tests (and capacity planning) can assert the
// reproducibility contract: the schedule depends only on the policy and
// the unit's identity.
func (p Policy) BackoffSchedule(name string, i, attempts int) []time.Duration {
	if p.Backoff <= 0 || attempts <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(unitSeed(p.Seed, name, i)))
	out := make([]time.Duration, attempts)
	for k := range out {
		out[k] = backoffDelay(p.Backoff, k, rng)
	}
	return out
}

// UnitError describes one unit that failed permanently (all retries
// exhausted) but was salvaged under the error budget.
type UnitError struct {
	Index int
	Err   error
}

func (u UnitError) Error() string { return fmt.Sprintf("unit %d: %v", u.Index, u.Err) }

// ErrBudgetExhausted is wrapped into the error ForEachPartial returns
// when more units failed than the policy's ErrorBudget allows.
var ErrBudgetExhausted = errors.New("par: error budget exhausted")

// ForEachPartial is ForEach with graceful degradation: units run under
// the installed Policy (deadline + retries), and a unit that still fails
// is recorded — not fatal — until more than Policy.ErrorBudget units
// have failed. It returns the salvaged units' errors (sorted by index)
// alongside the loop error: (nil, nil) is a complete run, (errs, nil) a
// partial-but-acceptable one whose failed indices hold no result, and
// (errs, err) an aborted run. Cancellation is never salvaged: a
// cancelled run always returns the cancellation error.
func ForEachPartial(ctx context.Context, name string, n int, fn func(ctx context.Context, i int) error) ([]UnitError, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = RootContext()
	}
	budget := CurrentPolicy().ErrorBudget
	var (
		mu     sync.Mutex
		failed []UnitError
	)
	err := runLoop(ctx, name, n, func(ctx context.Context, i int) error {
		uerr := RunUnit(ctx, name, i, func(ctx context.Context) error { return fn(ctx, i) })
		if uerr == nil {
			return nil
		}
		if ctx.Err() != nil {
			// Cancellation is a stop order, not a salvageable failure.
			return uerr
		}
		mu.Lock()
		defer mu.Unlock()
		failed = append(failed, UnitError{Index: i, Err: uerr})
		nFailed := len(failed)
		if budget > 0 && nFailed <= budget {
			salvagedCount.Add(1)
			if obs.Enabled() {
				obs.EventCtx(ctx, "par.salvaged",
					obs.F("value", salvagedCount.Load()),
					obs.F("unit", fmt.Sprintf("%s[%d]", name, i)),
					obs.F("err", uerr.Error()))
			}
			return nil // degrade gracefully: skip this unit, keep the loop alive
		}
		if budget > 0 {
			return fmt.Errorf("%w: %d unit(s) of %s failed (budget %d), last: %v",
				ErrBudgetExhausted, nFailed, name, budget, uerr)
		}
		return uerr
	})
	mu.Lock()
	defer mu.Unlock()
	sort.Slice(failed, func(a, b int) bool { return failed[a].Index < failed[b].Index })
	if err != nil {
		return failed, err
	}
	return failed, nil
}
