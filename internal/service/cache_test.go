package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"commsched/internal/core"
	"commsched/internal/obs"
	"commsched/internal/telemetry"
	"commsched/internal/topology"
)

func testRing(t *testing.T, n int) *topology.Network {
	t.Helper()
	net, err := topology.Ring(n, topology.Config{})
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	return net
}

// waitUntil polls cond until it holds or ten seconds pass.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// Sixteen concurrent evaluations of one new topology run one
// characterization; the other fifteen wait for it.
func TestServiceEvaluateSingleFlight(t *testing.T) {
	svc := newTestService(t, Config{Runner: &stubRunner{}})
	gate := make(chan struct{})
	svc.systems.build = func(net *topology.Network) (*core.System, error) {
		<-gate
		return newSystemSafe(net)
	}
	const callers = 16
	results := make([]EvaluateResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Evaluate(context.Background(), specEval())
		}(i)
	}
	// Hold the characterization until every caller has looked the
	// topology up, so a cache without single-flight would start one per
	// caller.
	waitUntil(t, "every caller to reach the cache", func() bool {
		st := svc.Stats()
		return st.Batches+st.Coalesced == callers
	})
	close(gate)
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] || results[i].Cc <= 0 {
			t.Fatalf("caller %d got %+v, caller 0 got %+v", i, results[i], results[0])
		}
	}
	if st := svc.Stats(); st.Batches != 1 || st.Coalesced != callers-1 {
		t.Fatalf("stats = (%d batches, %d coalesced), want (1, %d)", st.Batches, st.Coalesced, callers-1)
	}
}

// Over budget, the least recently used system goes first, and each
// eviction is counted.
func TestSysCacheEvictsLeastRecentlyUsed(t *testing.T) {
	net := testRing(t, 4)
	size := entrySize(net)
	c := newSysCache(2 * size)
	var trace []string
	get := func(sha string) {
		_, misses0 := c.stats()
		if _, err := c.get(context.Background(), sha, net); err != nil {
			t.Fatalf("get %s: %v", sha, err)
		}
		if _, misses := c.stats(); misses > misses0 {
			trace = append(trace, sha+" miss")
		} else {
			trace = append(trace, sha+" hit")
		}
	}
	// a is used again before c arrives, so b is the one evicted; then b
	// returns and evicts c.
	for _, sha := range []string{"a", "b", "a", "c", "a", "b"} {
		get(sha)
	}
	want := "a miss, b miss, a hit, c miss, a hit, b miss"
	if got := strings.Join(trace, ", "); got != want {
		t.Fatalf("lookups = %s, want %s", got, want)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.evictions != 2 || c.bytes != 2*size || len(c.entries) != 2 || c.entries["c"] != nil {
		t.Fatalf("evictions %d, bytes %d, entries %d (c kept: %v), want 2, %d, 2, false",
			c.evictions, c.bytes, len(c.entries), c.entries["c"] != nil, 2*size)
	}
}

// An entry is accounted for the network name it keeps, which the client
// chooses: distinct four-switch networks with 64 KiB names fill a 1 MiB
// budget after 14 entries, not after a thousand.
func TestSysCacheAccountsNetworkNames(t *testing.T) {
	const budget, nameLen, networks = 1 << 20, 64 << 10, 64
	c := newSysCache(budget)
	links := testRing(t, 4).Links()
	for i := 0; i < networks; i++ {
		net, err := topology.New(fmt.Sprintf("%02d", i)+strings.Repeat("x", nameLen), 4, links, topology.Config{})
		if err != nil {
			t.Fatalf("network %d: %v", i, err)
		}
		sha, err := TopologySHA(net)
		if err != nil {
			t.Fatalf("network %d: %v", i, err)
		}
		if _, err := c.get(context.Background(), sha, net); err != nil {
			t.Fatalf("network %d: %v", i, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := int64(len(c.entries))
	if c.bytes > budget || kept*nameLen > budget || c.evictions != networks-kept {
		t.Fatalf("%d entries kept (%d B accounted, %d evictions); their names alone hold %d B of a %d B budget",
			kept, c.bytes, c.evictions, kept*nameLen, budget)
	}
}

// A failed characterization is not cached: the next call runs it again.
func TestSysCacheDoesNotKeepFailures(t *testing.T) {
	net := testRing(t, 4)
	c := newSysCache(cacheBudget)
	fail := true
	c.build = func(n *topology.Network) (*core.System, error) {
		if fail {
			return nil, errors.New("boom")
		}
		return newSystemSafe(n)
	}
	if _, err := c.get(context.Background(), "a", net); err == nil {
		t.Fatal("the failed characterization must be returned")
	}
	fail = false
	sys, err := c.get(context.Background(), "a", net)
	if err != nil || sys == nil {
		t.Fatalf("retry = (%v, %v), want a system", sys, err)
	}
	if hits, misses := c.stats(); hits != 0 || misses != 2 {
		t.Fatalf("stats = (%d hits, %d misses), want (0, 2)", hits, misses)
	}
}

// A waiter whose context ends returns at once, and the characterization
// it was waiting on still lands in the cache.
func TestSysCacheCancelledWaiterReturns(t *testing.T) {
	net := testRing(t, 4)
	c := newSysCache(cacheBudget)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	c.build = func(n *topology.Network) (*core.System, error) {
		started <- struct{}{}
		<-release
		return newSystemSafe(n)
	}
	leader := make(chan error, 1)
	go func() {
		_, err := c.get(context.Background(), "a", net)
		leader <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := c.get(ctx, "a", net)
		waiter <- err
	}()
	waitUntil(t, "the waiter to find the entry in flight", func() bool {
		hits, _ := c.stats()
		return hits == 1
	})
	cancel()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) {
			close(release)
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("cancelled waiter stayed blocked on the characterization")
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if _, err := c.get(context.Background(), "a", net); err != nil {
		t.Fatalf("get after the leader finished: %v", err)
	}
	if hits, misses := c.stats(); hits != 2 || misses != 1 {
		t.Fatalf("stats = (%d hits, %d misses), want (2, 1): the leader's system must be cached", hits, misses)
	}
}

// The cache's counters reach /metrics, with one event per hit.
func TestAPIEvaluateCacheMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	obs.SetSink(reg)
	defer obs.SetSink(nil)
	svc := newTestService(t, Config{Runner: &stubRunner{}})
	ts := httptest.NewServer(svc.Mux(telemetry.NewServer(reg, telemetry.NewHub()).Handler()))
	t.Cleanup(ts.Close)
	spec := specEval()
	net, err := spec.ResolveNetwork()
	if err != nil {
		t.Fatalf("resolving: %v", err)
	}
	for i := 0; i < 3; i++ {
		if resp := postSpec(t, ts, "/evaluate", spec); resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate %d = %d, want 200", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	for _, line := range []string{
		`commsched_value{name="service.eval_cache_hits"} 2`,
		`commsched_value{name="service.eval_cache_misses"} 1`,
		`commsched_value{name="service.eval_cache_evictions"} 0`,
		fmt.Sprintf(`commsched_value{name="service.eval_cache_bytes"} %d`, entrySize(net)),
		`commsched_records_total{kind="event",name="service.eval_cache_hits"} 2`,
	} {
		if !strings.Contains(string(body), line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// The /evaluate body is pinned byte for byte on the paper's four-ring
// network, for the call that characterizes and for the one that hits.
func TestAPIEvaluateBodyPinned(t *testing.T) {
	_, ts := newTestAPI(t, Config{Runner: &stubRunner{}})
	assign := make([]int, 24)
	for s := range assign {
		assign[s] = s / 6
	}
	spec := JobSpec{Kind: KindEvaluate, Generate: &topology.Spec{Kind: "rings", Rings: 4, RingSize: 6, Bridges: 1}, Assign: assign, M: 4}
	const want = "{\n  \"fg\": 0.22645402518204838,\n  \"dg\": 1.2148738818938754,\n  \"cc\": 5.364770535287362\n}\n"
	for _, call := range []string{"miss", "hit"} {
		resp := postSpec(t, ts, "/evaluate", spec)
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: reading body: %v", call, err)
		}
		if resp.StatusCode != http.StatusOK || string(body) != want {
			t.Fatalf("%s: %d %q, want 200 %q", call, resp.StatusCode, body, want)
		}
	}
}

var evalSink EvaluateResult

// BenchmarkEvaluate times Service.Evaluate on a 64-switch network sent as
// an explicit document, as /evaluate receives it. hit scores against the
// cached system; miss characterizes on every call, because a zero budget
// evicts each system as soon as it is published.
func BenchmarkEvaluate(b *testing.B) {
	net, err := topology.RandomIrregular(64, 3, rand.New(rand.NewSource(1)), topology.Config{})
	if err != nil {
		b.Fatal(err)
	}
	doc, err := net.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	assign := make([]int, 64)
	for s := range assign {
		assign[s] = s % 4
	}
	spec := JobSpec{Kind: KindEvaluate, Network: doc, Assign: assign, M: 4}
	for _, bc := range []struct {
		name   string
		budget int64
	}{{"hit/n=64", cacheBudget}, {"miss/n=64", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			svc, err := New(Config{Runner: &stubRunner{}, Limits: Limits{QueueDepth: 1}})
			if err != nil {
				b.Fatal(err)
			}
			svc.systems = newSysCache(bc.budget)
			if _, err := svc.Evaluate(context.Background(), spec); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if evalSink, err = svc.Evaluate(context.Background(), spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
