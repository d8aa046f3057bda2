package lease

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"commsched/internal/runstate"
)

// BenchmarkClaimDone times one unit's trip through the lease protocol on
// the test's temp directory: a fresh claim, its done marker and the
// release, each record fsync'd before it is linked into place.
func BenchmarkClaimDone(b *testing.B) {
	m, err := Open(b.TempDir(), "w1", time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unit := "u" + strconv.Itoa(i)
		l, err := m.Acquire(unit, false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.MarkDone(unit, l.Token, time.Millisecond, nil); err != nil {
			b.Fatal(err)
		}
		m.Release(l)
	}
}

// BenchmarkRenew times one renewal of a held lease: the holder read, the
// fsync'd record renamed into place and the read-back.
func BenchmarkRenew(b *testing.B) {
	m, err := Open(b.TempDir(), "w1", time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	l, err := m.Acquire("u", false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Renew(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolLoop times the pool's per-unit dispatch: two workers with
// one slot each, at the default TTL, share one directory and split a
// 16-unit loop of 1 ms units, replaying each other's. ns/unit is the
// loop's wall time per unit, so it includes the wait for the sibling's
// last unit at the end of the loop.
func BenchmarkPoolLoop(b *testing.B) {
	const units = 16
	dir := b.TempDir()
	var pools []*Pool
	for _, id := range []string{"a", "b"} {
		m, err := Open(dir, id, 0)
		if err != nil {
			b.Fatal(err)
		}
		pools = append(pools, NewPool(m, PoolOptions{Slots: 1}))
	}
	fn := func(ctx context.Context, i int) error {
		if runstate.TokenFrom(ctx) != 0 { // run under a lease, not replayed
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errs := make([]error, len(pools))
		var wg sync.WaitGroup
		for k, p := range pools {
			wg.Add(1)
			go func(k int, p *Pool) {
				defer wg.Done()
				errs[k] = p.RunLoop(context.Background(), "bench", units, fn)
			}(k, p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*units), "ns/unit")
}
