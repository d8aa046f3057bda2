package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		cap     float64
		value   float64
		pct     float64
		comment string
	}{
		{1000, 0, 990, 99, "p99 has exactly ten samples beyond it"},
		{110, 0, 100, 100 * 100.0 / 110, "ten beyond the 100th of 110"},
		{11, 0, 1, 100.0 / 11, "the smallest sample count with any tail"},
		{10, 0, 10, 100, "too few samples: the maximum"},
		{10000, 0, 9990, 99.9, "uncapped, p99.9 qualifies"},
		{10000, 99, 9900, 99, "capped at p99"},
		{200, 99, 190, 95, "the cap does not raise a percentile"},
	}
	for _, c := range cases {
		got := tailOf(seq(c.n), c.cap)
		if got.Value != c.value || math.Abs(got.Pct-c.pct) > 1e-9 || got.N != c.n {
			t.Errorf("%s: tailOf(1..%d, cap %v) = %+v, want value %v at p%v", c.comment, c.n, c.cap, got, c.value, c.pct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got.Value {
				beyond++
			}
		}
		if c.n > minBeyond && beyond < minBeyond {
			t.Errorf("%s: only %d samples beyond the reported tail", c.comment, beyond)
		}
	}
	if got := tailOf(nil, 99); got != (tail{}) {
		t.Errorf("tailOf(nil) = %+v, want zero", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		// Two parallel children overlapping on [30,40], and one running
		// past the parent's end.
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(60)},
		{ID: 4, Parent: 1, Name: "c", Start: at(90), End: at(120)},
		// A grandchild covers part of a, not of root.
		{ID: 5, Parent: 2, Name: "d", Start: at(15), End: at(25)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 40 * time.Millisecond, // 100 - |[10,60] ∪ [90,100]|
		2: 20 * time.Millisecond, // 30 - 10
		3: 30 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 10 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	p := profile(spans)
	if p.Root != 100*time.Millisecond {
		t.Errorf("root time = %v", p.Root)
	}
	if got := p.share("a"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("share(a) = %v, want 0.2", got)
	}
}

func TestRecorderNilIsOffAndSpansShareRequest(t *testing.T) {
	var off *recorder
	if id := off.begin("x", "r", 0); id != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	off.end(0)
	if off.snapshot() != nil {
		t.Fatal("nil recorder has spans")
	}
	rec := &recorder{}
	root := rec.begin("root", "req1", 0)
	child := rec.begin("child", "req1", root)
	open := rec.begin("open", "req1", root)
	rec.end(child)
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot kept %d spans, want the 2 closed ones (open span %d excluded)", len(spans), open)
	}
	for _, s := range spans {
		if s.Req != "req1" {
			t.Errorf("span %s has request %q", s.Name, s.Req)
		}
	}
	if spans[1].Parent != root {
		t.Errorf("child's parent = %d, want %d", spans[1].Parent, root)
	}
}

func TestLatenessCountsOnlyLateSends(t *testing.T) {
	due := at(100)
	if got := lateness(due, at(130)); got != 30*time.Millisecond {
		t.Errorf("late send: %v", got)
	}
	if got := lateness(due, at(90)); got != 0 {
		t.Errorf("early send counted as late: %v", got)
	}
	// A stalled generator: request k is due every 10 ms but one stall
	// delays the next five sends until t=100 ms. Lateness from the due
	// time charges the stall to every delayed request, not just the first.
	var late []float64
	for k := 0; k < 10; k++ {
		due := at(10 * k)
		sent := due
		if k >= 5 && k < 10 {
			sent = at(100)
		}
		late = append(late, ms(lateness(due, sent)))
	}
	want := []float64{0, 0, 0, 0, 0, 50, 40, 30, 20, 10}
	for k := range want {
		if late[k] != want[k] {
			t.Errorf("request %d lateness %v ms, want %v", k, late[k], want[k])
		}
	}
}

func ramp(n int, step time.Duration, f func(i int) int) []backlogSample {
	var out []backlogSample
	for i := 0; i < n; i++ {
		out = append(out, backlogSample{At: time.Duration(i) * step, Backlog: f(i)})
	}
	return out
}

func TestBacklogGrowthDetection(t *testing.T) {
	step := 100 * time.Millisecond
	growing := func(s []backlogSample, slack float64, floor int) bool { return backlogSlope(s, floor) > slack }
	flat := ramp(30, step, func(i int) int { return 12 + i%3 })
	if growing(flat, 2, 4) {
		t.Error("a flat (if high) backlog read as growing")
	}
	climbing := ramp(30, step, func(i int) int { return 2 + 2*i }) // 20 jobs/s
	if !growing(climbing, 2, 4) {
		t.Error("a backlog climbing 20 jobs/s read as steady")
	}
	if got := backlogSlope(climbing, 4); math.Abs(got-20) > 1e-9 {
		t.Errorf("slope = %v, want 20", got)
	}
	tiny := ramp(30, step, func(i int) int { return i / 10 }) // ends at 2
	if growing(tiny, 0.1, 4) {
		t.Error("a backlog ending at the floor read as growing")
	}
	if growing(climbing[:3], 2, 4) {
		t.Error("three samples are too few to call growth")
	}
	// Samples after the last arrival are the drain, not growth.
	withDrain := append(ramp(20, step, func(i int) int { return 2 + 2*i }),
		ramp(20, step, func(i int) int { return 40 - 2*i })...)
	for i := 20; i < 40; i++ {
		withDrain[i].At = time.Duration(i) * step
	}
	if kept := withinWindow(withDrain, 19*step); len(kept) != 20 || !growing(kept, 2, 4) {
		t.Errorf("window kept %d samples; growth before the drain must still be detected", len(kept))
	}
}

func TestMaxSustainedRateInterpolates(t *testing.T) {
	rungs := []*rungResult{
		{rate: 20, excess: 0.1, passed: true},
		{rate: 50, excess: 0.5, passed: true},
		{rate: 70, excess: 1.5, passed: false},
	}
	if got, top := maxSustainedRate(rungs); math.Abs(got-60) > 1e-9 || top != 50 {
		t.Errorf("maxSustainedRate = %v (top %v), want 60 (top 50)", got, top)
	}
	refused := []*rungResult{{rate: 20, excess: 0.1, passed: true}, {rate: 40, excess: math.Inf(1)}}
	if got, _ := maxSustainedRate(refused); got != 20 {
		t.Errorf("a rung with refusals counts as missing: got %v, want 20", got)
	}
	allPass := []*rungResult{{rate: 20, passed: true}, {rate: 40, passed: true}}
	if got, _ := maxSustainedRate(allPass); got != 40 {
		t.Errorf("all rungs pass: got %v, want 40", got)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	var specs map[string]workloadSpec
	if err := json.Unmarshal(workloadsJSON, &specs); err != nil {
		t.Fatal(err)
	}
	var sp streamParams
	if err := json.Unmarshal(specs["schedule-stream"].Params, &sp); err != nil {
		t.Fatal(err)
	}
	digest := func(seed int64) string {
		reqs, err := streamBlock(sp, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range reqs {
			doc, err := r.Net.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(doc)
			json.NewEncoder(&buf).Encode([]any{r.Seed, r.Degrade, r.Plan, r.Repair})
		}
		return sha(buf.Bytes())
	}
	if digest(7) != digest(7) {
		t.Error("schedule-stream: the same seed generated different requests")
	}
	if digest(7) == digest(8) {
		t.Error("schedule-stream: different seeds generated the same requests")
	}

	var vp serviceParams
	if err := json.Unmarshal(specs["service-mix"].Params, &vp); err != nil {
		t.Fatal(err)
	}
	vp.PoolSizes = vp.PoolSizes[:2] // keep the oracle solves small
	pl, err := buildPool(vp)
	if err != nil {
		t.Fatal(err)
	}
	mix := func(seed int64) string {
		reqs, err := genRequests(vp, seed, pl, 5, 30, at(0), 10)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, r := range reqs {
			json.NewEncoder(&buf).Encode([]any{r.due, r.kind, r.path, r.tp, r.expect})
			buf.Write(r.body)
		}
		return sha(buf.Bytes())
	}
	if mix(3) != mix(3) {
		t.Error("service-mix: the same seed generated different requests")
	}
	if mix(3) == mix(4) {
		t.Error("service-mix: different seeds generated the same requests")
	}
}

func TestServiceMixFollowsTheMix(t *testing.T) {
	var specs map[string]workloadSpec
	if err := json.Unmarshal(workloadsJSON, &specs); err != nil {
		t.Fatal(err)
	}
	var vp serviceParams
	if err := json.Unmarshal(specs["service-mix"].Params, &vp); err != nil {
		t.Fatal(err)
	}
	vp.PoolSizes = vp.PoolSizes[:1]
	pl, err := buildPool(vp)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := genRequests(vp, 1, pl, 0, 100, at(0), 50)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, r := range reqs {
		count[string(r.kind)]++
	}
	if count["evaluate"] != 10*vp.Mix[0] || count["schedule"] != 10*vp.Mix[1] || count["sweep"] != 10*vp.Mix[2] {
		t.Errorf("100 requests split %v, want %v per 10", count, vp.Mix)
	}
	if got := reqs[99].due.Sub(reqs[0].due); got != 99*20*time.Millisecond {
		t.Errorf("request 99 due %v after request 0, want 1.98s at 50 req/s", got)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the benchmark's metric and workload
// names in step with the benchmark definition at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var specs map[string]workloadSpec
	if err := json.Unmarshal(workloadsJSON, &specs); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloadFuncs) || len(specs) != len(workloadFuncs) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in workloads.json, %d runners", len(def.Workloads), len(specs), len(workloadFuncs))
	}
	for _, w := range def.Workloads {
		if workloadFuncs[w.Name] == nil || specs[w.Name].Why == "" {
			t.Errorf("workload %s lacks a runner or a workloads.json record", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], perfbench %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
}
