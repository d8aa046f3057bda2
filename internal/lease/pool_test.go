package lease

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"commsched/internal/obs"
	"commsched/internal/runstate"
)

// testValue is the deterministic payload of unit i: every execution —
// original, reclaim, steal, or speculation — must journal these bytes.
func testValue(i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "unit-%d", i)
	return h.Sum64()
}

func testIdentity() runstate.Identity {
	return runstate.Identity{Command: "lease-test", Seeds: map[string]int64{"s": 1}}
}

// TestPoolContentionProperty is the lease-contention property test: N
// in-process "workers" (each with its own store, manager, and pool)
// race over M units on one shared directory, on top of leases abandoned
// by a crashed worker (forced expiries) and stale journal records under
// the crashed worker's fencing tokens (forced merge conflicts). The
// properties:
//
//   - every worker materializes the full, byte-identical result set;
//   - the merged journal holds every unit exactly once, under the
//     highest token that wrote it, with zero determinism violations;
//   - exactly one done marker per unit;
//   - the abandoned leases were reclaimed, and no fencing token ever
//     regressed (the winner of each unit is that unit's max token).
func TestPoolContentionProperty(t *testing.T) {
	const (
		workers = 4
		units   = 32
	)
	dir := t.TempDir()

	// A "crashed" worker: claims a handful of units with an already-tiny
	// TTL, journals two of them under its (low) tokens, then vanishes
	// without done markers or releases.
	dead := openTestManager(t, dir, "dead", time.Millisecond)
	// Freeze the crashed worker's clock while it claims, so a claim cannot
	// lapse between its fsync'd write and the read-back; on every other
	// worker's clock the leases expire a millisecond after this instant.
	claimed := time.Now()
	dead.now = func() time.Time { return claimed }
	for _, u := range []int{0, 3, 7} {
		if _, err := dead.Acquire(fmt.Sprintf("loop/i%06d", u), false); err != nil {
			t.Fatalf("dead acquire: %v", err)
		}
	}
	deadStore, err := runstate.OpenWorker(dir, testIdentity(), "dead")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{0, 3} {
		deadStore.RecordToken(fmt.Sprintf("unit/%d", u), testValue(u), 1)
	}
	if err := deadStore.Close(); err != nil {
		t.Fatal(err)
	}

	type workerOut struct {
		results []uint64
		stats   PoolStats
		store   *runstate.Store
	}
	outs := make([]workerOut, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			st, err := runstate.OpenWorker(dir, testIdentity(), id)
			if err != nil {
				t.Errorf("%s: OpenWorker: %v", id, err)
				return
			}
			m, err := Open(dir, id, 50*time.Millisecond)
			if err != nil {
				t.Errorf("%s: Open: %v", id, err)
				return
			}
			pool := NewPool(m, PoolOptions{Slots: 2})
			results := make([]uint64, units)
			err = pool.runLoop(context.Background(), "loop", units, func(ctx context.Context, i int) error {
				key := fmt.Sprintf("unit/%d", i)
				if err := st.Refresh(); err != nil {
					return err
				}
				var v uint64
				if st.Lookup(key, &v) {
					results[i] = v
					return nil
				}
				time.Sleep(time.Millisecond) // the unit's "work"
				v = testValue(i)
				st.RecordToken(key, v, runstate.TokenFrom(ctx))
				results[i] = v
				return nil
			})
			if err != nil {
				t.Errorf("%s: runLoop: %v", id, err)
				return
			}
			outs[w] = workerOut{results: results, stats: pool.Stats(), store: st}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Property 1: every worker's materialized results equal the serial
	// computation, byte for byte.
	var serial []uint64
	for i := 0; i < units; i++ {
		serial = append(serial, testValue(i))
	}
	want, _ := json.Marshal(serial)
	for w, out := range outs {
		got, _ := json.Marshal(out.results)
		if string(got) != string(want) {
			t.Errorf("w%d results diverge from serial:\n got %s\nwant %s", w, got, want)
		}
	}

	// Property 2: each store's merged view holds every unit exactly once
	// with zero determinism violations, and the crashed worker's leases
	// were reclaimed by someone.
	var totalReclaimed, totalExecuted int64
	for w, out := range outs {
		if err := out.store.Refresh(); err != nil {
			t.Fatalf("w%d final refresh: %v", w, err)
		}
		for i := 0; i < units; i++ {
			var v uint64
			if !out.store.Lookup(fmt.Sprintf("unit/%d", i), &v) {
				t.Errorf("w%d merged view is missing unit/%d", w, i)
			} else if v != testValue(i) {
				t.Errorf("w%d unit/%d = %d, want %d", w, i, v, testValue(i))
			}
		}
		if dv := out.store.Stats().DeterminismViolations; dv != 0 {
			t.Errorf("w%d observed %d determinism violation(s)", w, dv)
		}
		totalReclaimed += out.stats.Reclaimed
		totalExecuted += out.stats.Executed
		out.store.Close()
	}
	if totalReclaimed < 3 {
		t.Errorf("reclaimed %d leases in total, want the 3 abandoned ones", totalReclaimed)
	}
	if totalExecuted < int64(units) {
		t.Errorf("executed %d units in total, want >= %d", totalExecuted, units)
	}

	// Property 3: exactly one done marker per unit, and the winner of
	// each unit in the merged journal is that unit's highest token (no
	// fencing regression).
	markers, err := os.ReadDir(filepath.Join(dir, "lease", "done"))
	if err != nil {
		t.Fatal(err)
	}
	if len(markers) != units {
		t.Errorf("%d done markers, want %d", len(markers), units)
	}
	maxToken := map[string]uint64{}
	journals, _ := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if len(journals) < workers {
		t.Fatalf("found %d journals, want >= %d", len(journals), workers)
	}
	for _, j := range journals {
		f, err := os.Open(j)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var line struct {
				Key   string `json:"key"`
				Token uint64 `json:"token"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("%s: unparsable journal line %q", j, sc.Text())
			}
			if line.Token > maxToken[line.Key] {
				maxToken[line.Key] = line.Token
			}
		}
		f.Close()
	}
	audit, err := runstate.OpenWorker(dir, testIdentity(), "audit")
	if err != nil {
		t.Fatal(err)
	}
	defer audit.Close()
	for i := 0; i < units; i++ {
		key := fmt.Sprintf("unit/%d", i)
		if _, ok := maxToken[key]; !ok {
			t.Errorf("%s absent from every journal", key)
		}
		var v uint64
		if !audit.Lookup(key, &v) || v != testValue(i) {
			t.Errorf("audit store: %s = %d, want %d", key, v, testValue(i))
		}
	}
	if audit.Stats().DeterminismViolations != 0 {
		t.Errorf("audit observed determinism violations")
	}
}

// TestPoolSpeculationDuplicatesStragglers pins the straggler policy: a
// fast worker that has drained everything else duplicates the slow
// worker's in-flight unit under a fresh token, and the first completion
// wins without changing any result.
func TestPoolSpeculationDuplicatesStragglers(t *testing.T) {
	const units = 8
	dir := t.TempDir()
	run := func(id string, unitSleep time.Duration, opts PoolOptions, results []uint64, stats *PoolStats, done chan<- error) {
		st, err := runstate.OpenWorker(dir, testIdentity(), id)
		if err != nil {
			done <- err
			return
		}
		defer st.Close()
		m, err := Open(dir, id, 100*time.Millisecond)
		if err != nil {
			done <- err
			return
		}
		pool := NewPool(m, opts)
		err = pool.runLoop(context.Background(), "loop", units, func(ctx context.Context, i int) error {
			key := fmt.Sprintf("unit/%d", i)
			if err := st.Refresh(); err != nil {
				return err
			}
			var v uint64
			if st.Lookup(key, &v) {
				results[i] = v
				return nil
			}
			time.Sleep(unitSleep)
			v = testValue(i)
			st.RecordToken(key, v, runstate.TokenFrom(ctx))
			results[i] = v
			return nil
		})
		*stats = pool.Stats()
		done <- err
	}

	slowRes := make([]uint64, units)
	fastRes := make([]uint64, units)
	var slowStats, fastStats PoolStats
	slowDone := make(chan error, 1)
	fastDone := make(chan error, 1)
	go run("slow", 2*time.Second, PoolOptions{Slots: 1}, slowRes, &slowStats, slowDone)
	time.Sleep(20 * time.Millisecond) // let slow claim its first unit
	go run("fast", time.Millisecond, PoolOptions{Speculate: true, SpecFactor: 2, Slots: 2}, fastRes, &fastStats, fastDone)

	if err := <-fastDone; err != nil {
		t.Fatalf("fast worker: %v", err)
	}
	if fastStats.SpecRuns == 0 {
		t.Errorf("fast worker never speculated; stats %+v", fastStats)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow worker: %v", err)
	}
	for i := 0; i < units; i++ {
		if fastRes[i] != testValue(i) || slowRes[i] != testValue(i) {
			t.Fatalf("unit %d: fast=%d slow=%d want %d", i, fastRes[i], slowRes[i], testValue(i))
		}
	}
}

// TestPoolLoopIDsAgreeAcrossWorkers pins the distribution contract: two
// pools that run the same program derive identical loop IDs, including
// the sequence number that separates repeated loops of the same shape.
func TestPoolLoopIDsAgreeAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	a := NewPool(openTestManager(t, dir, "a", time.Minute), PoolOptions{})
	b := NewPool(openTestManager(t, dir, "b", time.Minute), PoolOptions{})
	ctx := runstate.WithScope(context.Background(), "sys=abc/map=def")
	for k := 0; k < 3; k++ {
		la := a.loopID(ctx, "par.foreach", 18)
		lb := b.loopID(ctx, "par.foreach", 18)
		if la != lb {
			t.Fatalf("iteration %d: loop IDs diverge: %q vs %q", k, la, lb)
		}
		if !strings.Contains(la, fmt.Sprintf("~%d", k)) {
			t.Fatalf("loop ID %q missing sequence %d", la, k)
		}
	}
	// A different scope or size is a different loop.
	if a.loopID(runstate.WithScope(context.Background(), "other"), "par.foreach", 18) ==
		b.loopID(ctx, "par.foreach", 18) {
		t.Fatal("distinct scopes produced the same loop ID")
	}
}

// TestPoolWakesSoonAfterSiblingDone pins the idle backoff: at the default
// 5 s TTL, a worker whose last unit is held by a sibling replays it
// within milliseconds of the sibling's done marker. A fixed TTL/4 poll
// sleeps 625 ms or more before its first look. The wait is one lease.wait
// span and shows in the pool's wait total.
func TestPoolWakesSoonAfterSiblingDone(t *testing.T) {
	mem := &obs.Memory{}
	obs.SetSink(mem)
	defer obs.SetSink(nil)
	dir := t.TempDir()
	// Both register before either loop starts, so the stripe over the
	// live set [a b] gives unit 0 to a and unit 1 to b.
	a := NewPool(openTestManager(t, dir, "a", 0), PoolOptions{Slots: 1})
	b := NewPool(openTestManager(t, dir, "b", 0), PoolOptions{Slots: 1})
	if ttl := b.Manager().TTL(); ttl != 5*time.Second {
		t.Fatalf("default TTL %v, want 5s", ttl)
	}
	aStarted := make(chan struct{})
	var aEnd time.Time
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := a.RunLoop(context.Background(), "loop", 2, func(ctx context.Context, i int) error {
			if i == 0 && runstate.TokenFrom(ctx) != 0 {
				close(aStarted)
				time.Sleep(100 * time.Millisecond)
				aEnd = time.Now()
			}
			return nil
		})
		if err != nil {
			t.Errorf("a: %v", err)
		}
	}()
	err := b.RunLoop(context.Background(), "loop", 2, func(ctx context.Context, i int) error {
		if i == 1 {
			// b's own unit finishes at once, but only after a holds unit 0.
			select {
			case <-aStarted:
			case <-time.After(10 * time.Second):
				return fmt.Errorf("a never started unit 0")
			}
		}
		return nil
	})
	bEnd := time.Now()
	wg.Wait()
	if err != nil {
		t.Fatalf("b: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if as, bs := a.Stats(), b.Stats(); as.Executed != 1 || bs.Executed != 1 || bs.Replayed != 1 {
		t.Fatalf("a executed %d, b executed %d and replayed %d; want 1, 1 and 1", as.Executed, bs.Executed, bs.Replayed)
	}
	if lag := bEnd.Sub(aEnd); lag >= 400*time.Millisecond {
		t.Errorf("b returned %v after a's last unit ended, want < 400ms", lag)
	}
	if w := b.Stats().Wait; w < 50*time.Millisecond {
		t.Errorf("b's wait total %v, want about the 100 ms it waited for a", w)
	}
	var waits int
	for _, rec := range mem.ByName("lease.wait") {
		f := map[string]any{}
		for _, fl := range rec.Fields {
			f[fl.Key] = fl.Value
		}
		if f["worker"] != "b" {
			continue
		}
		waits++
		if polls, _ := f["polls"].(int); polls < 1 || !strings.HasPrefix(fmt.Sprint(f["loop"]), "loop~2~") {
			t.Errorf("lease.wait span fields %v, want the loop and at least one poll", f)
		}
	}
	if waits != 1 {
		t.Errorf("b recorded %d lease.wait span(s), want 1", waits)
	}
	var sawWaitMs bool
	for _, rec := range mem.ByName("lease.status") {
		for _, fl := range rec.Fields {
			if v, ok := fl.Value.(float64); ok && fl.Key == "wait_ms" && v > 0 {
				sawWaitMs = true
			}
		}
	}
	if !sawWaitMs {
		t.Error("no lease.status event carried a positive wait_ms")
	}
}
