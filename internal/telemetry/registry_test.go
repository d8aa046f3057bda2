package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"commsched/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedClock returns a registry clock that advances by step per call.
func fixedClock(start time.Time, step time.Duration) func() time.Time {
	t := start
	return func() time.Time {
		now := t
		t = t.Add(step)
		return now
	}
}

// feedRegistry ingests a deterministic record mix covering every family.
func feedRegistry(g *Registry) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	g.Emit(obs.Record{Time: base, Kind: "event", Name: "simnet.sweep_point",
		Fields: []obs.Field{obs.F("point", 1), obs.F("rate", 0.05)}})
	g.Emit(obs.Record{Time: base, Kind: "event", Name: "simnet.sweep_point",
		Fields: []obs.Field{obs.F("point", 2), obs.F("rate", 0.10)}})
	g.Emit(obs.Record{Time: base, Kind: "event", Name: "distance.pairs",
		Fields: []obs.Field{obs.F("value", int64(120))}})
	g.Emit(obs.Record{Time: base, Kind: "span", Name: "simnet.run", Dur: 250 * time.Millisecond})
	g.Emit(obs.Record{Time: base, Kind: "span", Name: "simnet.run", Dur: 750 * time.Millisecond})
	g.Emit(obs.Record{Time: base, Kind: "span", Name: "search.tabu", Dur: 2 * time.Second})
	g.Emit(obs.Record{Time: base, Kind: "hist", Name: "simnet.queue_occupancy",
		Fields: []obs.Field{
			obs.F("bounds", []float64{0, 1, 2, 4}),
			obs.F("counts", []int64{5, 3, 2, 1, 1}),
			obs.F("count", int64(12)),
			obs.F("sum", 19.0),
			obs.F("mean", 19.0/12),
		}})
	for done := int64(1); done <= 3; done++ {
		g.Emit(obs.Record{Time: base, Kind: "event", Name: "progress",
			Fields: []obs.Field{obs.F("task", "simnet.sweep"), obs.F("done", done), obs.F("total", int64(9))}})
	}
	g.Emit(obs.Record{Time: base, Kind: "event", Name: "run.manifest",
		Fields: []obs.Field{obs.F("command", "paperfigs"), obs.F("seed_sim", int64(7))}})
}

// TestWritePrometheusGolden pins the exact /metrics exposition for a
// fixed record mix: sorted families, deterministic float formatting,
// cumulative histogram buckets.
func TestWritePrometheusGolden(t *testing.T) {
	g := NewRegistry()
	// Deterministic clock: creation, then one tick per progress record,
	// then the exposition's uptime read.
	g.now = fixedClock(time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC), 10*time.Second)
	g.started = g.now()
	feedRegistry(g)

	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (rerun with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// The exposition must be stable across identical registries.
	var buf2 bytes.Buffer
	g2 := NewRegistry()
	g2.now = fixedClock(time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC), 10*time.Second)
	g2.started = g2.now()
	feedRegistry(g2)
	if err := g2.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two registries with identical contents produced different expositions")
	}
}

// BenchmarkWritePrometheus times one /metrics render of a registry fed
// the fixed record mixes of feedRegistry and feedLatency: every family,
// latency histograms included.
func BenchmarkWritePrometheus(b *testing.B) {
	g := NewRegistry()
	feedRegistry(g)
	feedLatency(b, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func TestProgressETA(t *testing.T) {
	g := NewRegistry()
	g.now = fixedClock(time.Unix(1000, 0), 10*time.Second)
	g.started = g.now()
	// Ticks: first progress at t=1010 (start), second at t=1020.
	g.Emit(obs.Record{Kind: "event", Name: "progress",
		Fields: []obs.Field{obs.F("task", "sweep"), obs.F("done", int64(1)), obs.F("total", int64(5))}})
	g.Emit(obs.Record{Kind: "event", Name: "progress",
		Fields: []obs.Field{obs.F("task", "sweep"), obs.F("done", int64(2)), obs.F("total", int64(5))}})
	ps := g.Progress()
	if len(ps) != 1 {
		t.Fatalf("got %d tasks, want 1", len(ps))
	}
	st := ps[0]
	if st.Done != 2 || st.Total != 5 {
		t.Fatalf("done/total = %d/%d, want 2/5", st.Done, st.Total)
	}
	if st.Ratio != 0.4 {
		t.Errorf("ratio = %v, want 0.4", st.Ratio)
	}
	// 2 done in 10s elapsed -> 3 remaining at 5 s/item = 15s.
	if st.ETASeconds != 15 {
		t.Errorf("eta = %v, want 15", st.ETASeconds)
	}

	// A restart (done going backwards) resets the task's clock.
	g.Emit(obs.Record{Kind: "event", Name: "progress",
		Fields: []obs.Field{obs.F("task", "sweep"), obs.F("done", int64(1)), obs.F("total", int64(5))}})
	st = g.Progress()[0]
	if st.Done != 1 {
		t.Fatalf("after restart done = %d, want 1", st.Done)
	}
	if st.ETASeconds != -1 {
		t.Errorf("after restart eta = %v, want -1 (no elapsed time yet)", st.ETASeconds)
	}
}

func TestRunsJSON(t *testing.T) {
	g := NewRegistry()
	feedRegistry(g)
	data, err := g.RunsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Manifest map[string]any  `json:"manifest"`
		Progress []ProgressState `json:"progress"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatalf("runs payload is not valid JSON: %v\n%s", err, data)
	}
	if payload.Manifest["command"] != "paperfigs" {
		t.Errorf("manifest command = %v, want paperfigs", payload.Manifest["command"])
	}
	if len(payload.Progress) != 1 || payload.Progress[0].Task != "simnet.sweep" {
		t.Errorf("progress = %+v, want the simnet.sweep task", payload.Progress)
	}

	// Before any records, /runs must still be valid JSON with an empty
	// progress array and no manifest.
	empty := NewRegistry()
	data, err = empty.RunsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatalf("empty runs payload invalid: %v", err)
	}
}

func TestRegistryIgnoresMalformedHist(t *testing.T) {
	g := NewRegistry()
	g.Emit(obs.Record{Kind: "hist", Name: "bad",
		Fields: []obs.Field{obs.F("bounds", []float64{1, 2}), obs.F("counts", []int64{1})}})
	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("commsched_hist_bucket")) {
		t.Error("malformed hist flush leaked into the exposition")
	}
}

func TestRegistryRunstateStatus(t *testing.T) {
	g := NewRegistry()
	if g.Runstate() != nil {
		t.Fatal("runstate must start nil")
	}
	g.Emit(obs.Record{Kind: "event", Name: "runstate.status", Time: time.Unix(0, 0), Fields: []obs.Field{
		obs.F("dir", "/tmp/ckpt"),
		obs.F("units", 12),
		obs.F("replayed", int64(5)),
		obs.F("recorded", int64(7)),
		obs.F("skipped_partial", int64(0)),
	}})
	rs := g.Runstate()
	if rs == nil || rs["dir"] != "/tmp/ckpt" {
		t.Fatalf("runstate = %v", rs)
	}
	data, err := g.RunsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var payload map[string]any
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatal(err)
	}
	inner, ok := payload["runstate"].(map[string]any)
	if !ok {
		t.Fatalf("/runs payload missing runstate: %s", data)
	}
	if inner["replayed"] != float64(5) {
		t.Fatalf("replayed = %v", inner["replayed"])
	}
}

func TestRegistryLeaseAndRunstateGauges(t *testing.T) {
	g := NewRegistry()
	if g.Lease() != nil {
		t.Fatal("lease must start nil")
	}
	g.Emit(obs.Record{Kind: "event", Name: "runstate.status", Time: time.Unix(0, 0), Fields: []obs.Field{
		obs.F("dir", "/tmp/ckpt"),
		obs.F("units", 12),
		obs.F("conflicts", int64(2)),
		obs.F("determinism_violations", int64(0)),
	}})
	g.Emit(obs.Record{Kind: "event", Name: "lease.status", Time: time.Unix(1, 0), Fields: []obs.Field{
		obs.F("worker", "w1"),
		obs.F("acquired", int64(9)),
		obs.F("stolen", int64(3)),
		obs.F("reclaimed", int64(1)),
		obs.F("spec_wins", int64(0)),
		obs.F("wait_ms", 12.5),
	}})

	ls := g.Lease()
	if ls == nil || ls["worker"] != "w1" {
		t.Fatalf("lease snapshot = %v", ls)
	}

	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	for _, want := range []string{
		"# TYPE commsched_runstate gauge\n",
		"commsched_runstate{field=\"units\"} 12\n",
		"commsched_runstate{field=\"conflicts\"} 2\n",
		"commsched_runstate{field=\"determinism_violations\"} 0\n",
		"# TYPE commsched_lease gauge\n",
		"commsched_lease{field=\"acquired\"} 9\n",
		"commsched_lease{field=\"stolen\"} 3\n",
		"commsched_lease{field=\"reclaimed\"} 1\n",
		"commsched_lease{field=\"spec_wins\"} 0\n",
		"commsched_lease{field=\"wait_ms\"} 12.5\n",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The worker ID is a string, not a gauge.
	if strings.Contains(exposition, "field=\"worker\"") {
		t.Error("string field leaked into the lease gauge family")
	}

	// Both snapshots ride along on /runs.
	data, err := g.RunsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Lease map[string]any `json:"lease"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Lease["stolen"] != float64(3) {
		t.Fatalf("/runs lease.stolen = %v", payload.Lease["stolen"])
	}
	// A later status event replaces, never accumulates.
	g.Emit(obs.Record{Kind: "event", Name: "lease.status", Time: time.Unix(2, 0), Fields: []obs.Field{
		obs.F("worker", "w1"),
		obs.F("acquired", int64(10)),
	}})
	buf.Reset()
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "commsched_lease{field=\"acquired\"} 10\n") {
		t.Errorf("lease gauge did not track the latest status event")
	}
}
