package lease

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"commsched/internal/runstate"
)

func openTestManager(t *testing.T, dir, owner string, ttl time.Duration) *Manager {
	t.Helper()
	m, err := Open(dir, owner, ttl)
	if err != nil {
		t.Fatalf("Open(%s): %v", owner, err)
	}
	return m
}

func TestAcquireRenewRelease(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, "w1", time.Minute)
	l, err := m.Acquire("u1", false)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if l.Mode != ModeOwned || l.Token == 0 {
		t.Fatalf("fresh acquire: %+v", l)
	}
	if _, err := m.Acquire("u1", false); !errors.Is(err, ErrHeld) {
		t.Fatalf("second acquire of a held unit: %v, want ErrHeld", err)
	}
	before := l.Expires
	if err := m.Renew(l); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if !l.Expires.After(before.Add(-time.Second)) {
		t.Fatalf("Renew did not extend: %v -> %v", before, l.Expires)
	}
	m.Release(l)
	if l2, err := m.Acquire("u1", false); err != nil || l2.Token <= l.Token {
		t.Fatalf("re-acquire after release: %+v, %v (prev token %d)", l2, err, l.Token)
	}
}

func TestExpiredLeaseIsReclaimedWithHigherToken(t *testing.T) {
	dir := t.TempDir()
	m1 := openTestManager(t, dir, "w1", time.Minute)
	m2 := openTestManager(t, dir, "w2", time.Minute)
	l1, err := m1.Acquire("u1", false)
	if err != nil {
		t.Fatalf("w1 acquire: %v", err)
	}
	// w2 sees a valid lease...
	if _, err := m2.Acquire("u1", false); !errors.Is(err, ErrHeld) {
		t.Fatalf("w2 acquire while held: %v", err)
	}
	// ...until w1's clock-based deadline passes (simulated by advancing
	// w2's clock past the TTL).
	m2.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	l2, err := m2.Acquire("u1", false)
	if err != nil {
		t.Fatalf("w2 reclaim: %v", err)
	}
	if l2.Mode != ModeReclaim {
		t.Fatalf("mode %q, want reclaim", l2.Mode)
	}
	if l2.Token <= l1.Token {
		t.Fatalf("fencing violation: reclaim token %d not above original %d", l2.Token, l1.Token)
	}
	// The zombie's renewal must now fail with ErrLost.
	if err := m1.Renew(l1); !errors.Is(err, ErrLost) {
		t.Fatalf("zombie renew: %v, want ErrLost", err)
	}
	s2 := m2.Stats()
	if s2.Reclaimed != 1 {
		t.Fatalf("w2 reclaimed counter %d, want 1", s2.Reclaimed)
	}
	if lats := m2.ReclaimLatencies(); len(lats) != 1 || lats[0] <= 0 {
		t.Fatalf("reclaim latencies %v, want one positive sample", lats)
	}
	if m1.Stats().Lost != 1 {
		t.Fatalf("w1 lost counter %d, want 1", m1.Stats().Lost)
	}
}

func TestTornLeaseIsReclaimable(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, "w1", time.Minute)
	// Simulate a crash between create and write: an empty lease file.
	path := filepath.Join(dir, "lease", "units", "u1.lease")
	if err := os.WriteFile(path, []byte("lease/1 token=9 owner=\"dead\" un"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := m.Acquire("u1", false)
	if err != nil {
		t.Fatalf("acquire over torn lease: %v", err)
	}
	if l.Mode != ModeReclaim {
		t.Fatalf("mode %q, want reclaim", l.Mode)
	}
}

func TestTokensAreUniqueAndMonotonic(t *testing.T) {
	dir := t.TempDir()
	m1 := openTestManager(t, dir, "w1", time.Minute)
	m2 := openTestManager(t, dir, "w2", time.Minute)
	seen := map[uint64]bool{}
	var last uint64
	for i := 0; i < 20; i++ {
		m := m1
		if i%2 == 1 {
			m = m2
		}
		tok, err := m.AllocToken()
		if err != nil {
			t.Fatalf("AllocToken: %v", err)
		}
		if seen[tok] {
			t.Fatalf("token %d allocated twice", tok)
		}
		if tok <= last {
			t.Fatalf("token regression: %d after %d", tok, last)
		}
		seen[tok] = true
		last = tok
	}
}

func TestMarkDoneFirstWins(t *testing.T) {
	dir := t.TempDir()
	m1 := openTestManager(t, dir, "w1", time.Minute)
	m2 := openTestManager(t, dir, "w2", time.Minute)
	won, err := m1.MarkDone("u1", 3, 50*time.Millisecond, nil)
	if err != nil || !won {
		t.Fatalf("first MarkDone: won=%v err=%v", won, err)
	}
	// A speculative duplicate with a higher token still loses the marker.
	won, err = m2.MarkDone("u1", 9, time.Millisecond, nil)
	if err != nil || won {
		t.Fatalf("second MarkDone: won=%v err=%v, want lost", won, err)
	}
	rec, ok := m2.Done("u1")
	if !ok || rec.Token != 3 || rec.Owner != "w1" || rec.Dur != int64(50*time.Millisecond) {
		t.Fatalf("Done record %+v ok=%v, want w1's token-3 marker", rec, ok)
	}
}

func TestDoneMarkerCarriesError(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, "w1", time.Minute)
	if _, err := m.MarkDone("u1", 3, time.Millisecond, errors.New("permanent failure")); err != nil {
		t.Fatal(err)
	}
	rec, ok := m.Done("u1")
	if !ok || rec.Err != "permanent failure" {
		t.Fatalf("done record %+v ok=%v, want carried error", rec, ok)
	}
}

func TestLiveWorkersRegistry(t *testing.T) {
	dir := t.TempDir()
	m1 := openTestManager(t, dir, "w1", time.Minute)
	openTestManager(t, dir, "w2", time.Minute)
	live := m1.LiveWorkers(time.Minute)
	if len(live) != 2 || live[0] != "w1" || live[1] != "w2" {
		t.Fatalf("live workers %v, want [w1 w2]", live)
	}
	// Outside the liveness window only the caller itself remains.
	m1.now = func() time.Time { return time.Now().Add(time.Hour) }
	if live := m1.LiveWorkers(time.Minute); len(live) != 1 || live[0] != "w1" {
		t.Fatalf("live workers after expiry %v, want [w1]", live)
	}
}

func TestSanitizedUnitNamesStayDistinct(t *testing.T) {
	dir := t.TempDir()
	m := openTestManager(t, dir, "w1", time.Minute)
	units := []string{"a/b", "a%2fb", "a\\b", "plain"}
	for _, u := range units {
		if _, err := m.Acquire(u, false); err != nil {
			t.Fatalf("Acquire(%q): %v", u, err)
		}
	}
	for _, u := range units {
		if _, err := m.Acquire(u, false); !errors.Is(err, ErrHeld) {
			t.Fatalf("re-acquire %q: %v, want ErrHeld (collision?)", u, err)
		}
	}
}

// TestDoneThenReleasedIsNeverLeased pins the done-then-released window: a
// sibling that found no done marker must not win a fresh claim on a unit
// whose holder marked it done and released it in between, and a pool
// replays such a unit instead of running it.
func TestDoneThenReleasedIsNeverLeased(t *testing.T) {
	dir := t.TempDir()
	m1 := openTestManager(t, dir, "w1", time.Minute)
	m2 := openTestManager(t, dir, "w2", time.Minute)
	complete := func(unit string) {
		l, err := m1.Acquire(unit, false)
		if err != nil {
			t.Fatalf("w1 acquire %s: %v", unit, err)
		}
		if won, err := m1.MarkDone(unit, l.Token, time.Millisecond, nil); err != nil || !won {
			t.Fatalf("w1 MarkDone %s: won=%v err=%v", unit, won, err)
		}
		m1.Release(l)
	}

	// The holder finishes after w2's done check but before w2 claims:
	// w2's clock is first read between its lease check and its claim.
	var once sync.Once
	m2.now = func() time.Time {
		once.Do(func() { complete("u1") })
		return time.Now()
	}
	if l, err := m2.Acquire("u1", false); !errors.Is(err, ErrDone) {
		t.Fatalf("claim raced by a completion: lease %+v, err %v; want ErrDone", l, err)
	}
	m2.now = time.Now
	if _, err := os.Stat(m2.unitPath("u1")); !os.IsNotExist(err) {
		t.Fatalf("the handed-back claim left its lease file behind: %v", err)
	}

	// The same unit, completed and released before w2 looks.
	if l, err := m2.Acquire("u1", false); !errors.Is(err, ErrDone) {
		t.Fatalf("claim of a done unit: lease %+v, err %v; want ErrDone", l, err)
	}
	if s := m2.Stats(); s.Acquired != 0 || s.Stolen != 0 || s.Conflicts != 0 {
		t.Fatalf("w2 counted claims it handed back: %+v", s)
	}

	complete("loop/i000000")
	pool := NewPool(m2, PoolOptions{Slots: 1})
	var ran atomic.Int64
	err := pool.runLoop(context.Background(), "loop", 1, func(ctx context.Context, i int) error {
		if runstate.TokenFrom(ctx) != 0 {
			ran.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); ran.Load() != 0 || s.Executed != 0 || s.Replayed != 1 {
		t.Fatalf("pool ran a done unit %d time(s); stats %+v, want 1 replay", ran.Load(), s)
	}
}

// TestPublishedRecordsAreNeverTorn pins the torn-read window: a reader
// that races a fresh claim or a done marker sees no file or a whole
// record. Before claims and markers were linked into place whole, a
// reader could find the file created but not yet written: Holder then
// took the new lease for a torn one, free to reclaim, and Done deleted
// the marker, so a unit whose MarkDone had won looked not done.
func TestPublishedRecordsAreNeverTorn(t *testing.T) {
	const units = 2000
	dir := t.TempDir()
	m := openTestManager(t, dir, "w1", time.Minute)
	var tornLeases, lostMarkers int
	for k := 0; k < units; k++ {
		unit := fmt.Sprintf("u%d", k)
		var stop atomic.Bool
		var torn atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, _, expired := m.Holder(unit); expired {
					torn.Add(1)
				}
				m.Done(unit)
			}
		}()
		l, err := m.Acquire(unit, false)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("Acquire(%s): %v", unit, err)
		}
		won, err := m.MarkDone(unit, l.Token, time.Millisecond, nil)
		stop.Store(true)
		wg.Wait()
		if err != nil || !won {
			t.Fatalf("MarkDone(%s): won=%v err=%v", unit, won, err)
		}
		if torn.Load() > 0 {
			tornLeases++
		}
		if rec, ok := m.Done(unit); !ok || rec.Token != l.Token {
			lostMarkers++
		}
	}
	if tornLeases > 0 || lostMarkers > 0 {
		t.Fatalf("of %d units, %d leases read as torn and %d markers were gone or unparsable after MarkDone won",
			units, tornLeases, lostMarkers)
	}
}
