package par

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 1000
	counts := make([]atomic.Int64, n)
	if err := ForEach(nil, n, func(_ context.Context, i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(nil, 0, func(context.Context, int) error {
		t.Fatal("fn called for empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	sentinel := errors.New("boom")
	err := ForEach(nil, 100, func(_ context.Context, i int) error {
		if i == 7 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the sentinel error", err)
	}
}

func TestForEachRecoversPanic(t *testing.T) {
	err := ForEach(nil, 10, func(_ context.Context, i int) error {
		if i == 3 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not surfaced as error: %v", err)
	}
}

func TestForEachHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEach(ctx, 1000, func(context.Context, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestLocalGivesEachWorkerItsOwnState(t *testing.T) {
	const n = 1000
	var (
		mu     sync.Mutex // workers build their states concurrently
		states []*int
	)
	visits := make([]atomic.Int64, n)
	err := Local(context.Background(), n, func() *int {
		c := new(int)
		mu.Lock()
		states = append(states, c)
		mu.Unlock()
		return c
	}, func(_ context.Context, c *int, i int) error {
		*c++ // unsynchronized: -race flags a state two workers share
		visits[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || len(states) > runtime.GOMAXPROCS(0) {
		t.Fatalf("%d worker states for GOMAXPROCS=%d", len(states), runtime.GOMAXPROCS(0))
	}
	total := 0
	for _, c := range states {
		total += *c
	}
	if total != n {
		t.Fatalf("worker states counted %d items, want %d", total, n)
	}
	for i := range visits {
		if c := visits[i].Load(); c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestLocalRecoversNewStatePanic: newState runs on the worker, so its
// panic is recovered into the loop's error like an item's.
func TestLocalRecoversNewStatePanic(t *testing.T) {
	err := Local(context.Background(), 10, func() int { panic("no state") }, func(context.Context, int, int) error {
		t.Error("item ran without its worker's state")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "no state") {
		t.Fatalf("newState panic not surfaced as error: %v", err)
	}
}

// TestForEachAllocsDoNotGrowWithItems: a loop's allocations are its
// workers' and its error's, never a per-item cost.
func TestForEachAllocsDoNotGrowWithItems(t *testing.T) {
	noop := func(context.Context, int) error { return nil }
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := ForEach(context.Background(), n, noop); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(1000); large > small+4 {
		t.Fatalf("ForEach allocates %v times over 1000 items, %v over 10", large, small)
	}
}

// BenchmarkForEach times the loop's own per-item dispatch: a no-op item
// on the local pool, reported as ns/item.
func BenchmarkForEach(b *testing.B) {
	const n = 1000
	noop := func(context.Context, int) error { return nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ForEach(context.Background(), n, noop); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/item")
}
