package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"commsched/internal/obs"
)

func mustTrace(t *testing.T, s string) obs.TraceID {
	t.Helper()
	id, err := obs.ParseTraceID(s)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// feedLatency ingests a deterministic mix of http.request spans and
// service.latency events, some traced (exemplar-bearing) and some not.
func feedLatency(t *testing.T, g *Registry) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr1 := mustTrace(t, "0af7651916cd43dd8448eb211c80319c")
	tr2 := mustTrace(t, "1bf7651916cd43dd8448eb211c80319d")
	g.Emit(obs.Record{Time: base, Kind: "span", Name: "http.request",
		Dur: 3 * time.Millisecond, Trace: tr1,
		Fields: []obs.Field{obs.F("endpoint", "/jobs"), obs.F("status", 202)}})
	g.Emit(obs.Record{Time: base.Add(time.Second), Kind: "span", Name: "http.request",
		Dur: 40 * time.Millisecond, Trace: tr2,
		Fields: []obs.Field{obs.F("endpoint", "/jobs"), obs.F("status", 202)}})
	g.Emit(obs.Record{Time: base, Kind: "span", Name: "http.request",
		Dur:    700 * time.Microsecond, // untraced: bucket keeps no exemplar
		Fields: []obs.Field{obs.F("endpoint", "/jobs/{id}"), obs.F("status", 200)}})
	g.Emit(obs.Record{Time: base, Kind: "event", Name: "service.latency", Trace: tr1,
		Fields: []obs.Field{obs.F("state", "queued"), obs.F("seconds", 0.02)}})
	g.Emit(obs.Record{Time: base, Kind: "event", Name: "service.latency", Trace: tr1,
		Fields: []obs.Field{obs.F("state", "running"), obs.F("seconds", 1.8)}})
}

// TestWriteOpenMetricsGolden pins the OpenMetrics rendering: latency
// histograms with trace-ID exemplars on the buckets that saw traced
// observations, and the "# EOF" terminator.
func TestWriteOpenMetricsGolden(t *testing.T) {
	g := NewRegistry()
	g.now = fixedClock(time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC), 10*time.Second)
	g.started = g.now()
	feedLatency(t, g)

	var buf bytes.Buffer
	if err := g.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "openmetrics.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (rerun with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("OpenMetrics exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("# EOF\n")) {
		t.Error("OpenMetrics exposition must end with # EOF")
	}
	if !bytes.Contains(buf.Bytes(), []byte(`# {trace_id="0af7651916cd43dd8448eb211c80319c"}`)) {
		t.Error("exposition lost the trace exemplar")
	}
}

// TestPrometheusHasNoExemplars checks the 0.0.4 exposition renders the
// same histograms bare — exemplar syntax is OpenMetrics-only.
func TestPrometheusHasNoExemplars(t *testing.T) {
	g := NewRegistry()
	feedLatency(t, g)
	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `commsched_http_request_duration_seconds_bucket{endpoint="/jobs",le="0.05"} 2`) {
		t.Errorf("latency histogram missing from Prometheus exposition:\n%s", out)
	}
	if strings.Contains(out, "trace_id") || strings.Contains(out, "# EOF") {
		t.Error("Prometheus 0.0.4 exposition must not carry exemplars or EOF")
	}
}

// TestTracesStore exercises the bounded /trace store: retention, record
// capping, eviction, and the JSON view.
func TestTracesStore(t *testing.T) {
	ts := NewTraces(2, 3)
	tr := func(i int) obs.TraceID {
		id, err := obs.ParseTraceID(fmt.Sprintf("%032x", i+1))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	for i := 0; i < 5; i++ { // 5 records for trace 0: 2 past the cap
		ts.Emit(obs.Record{Time: time.Unix(int64(i), 0), Kind: "span", Name: "s", Trace: tr(0)})
	}
	ts.Emit(obs.Record{Kind: "event", Name: "untraced"}) // ignored
	data, ok := ts.TraceJSON(tr(0).String())
	if !ok {
		t.Fatal("trace 0 missing")
	}
	var payload struct {
		Trace   string           `json:"trace"`
		Records []map[string]any `json:"records"`
		Dropped int              `json:"dropped"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Records) != 3 || payload.Dropped != 2 {
		t.Fatalf("records/dropped = %d/%d, want 3/2", len(payload.Records), payload.Dropped)
	}

	ts.Emit(obs.Record{Kind: "span", Name: "s", Trace: tr(1)})
	ts.Emit(obs.Record{Kind: "span", Name: "s", Trace: tr(2)}) // evicts trace 0
	if _, ok := ts.TraceJSON(tr(0).String()); ok {
		t.Error("oldest trace survived past the cap")
	}
	if _, ok := ts.TraceJSON(tr(2).String()); !ok {
		t.Error("newest trace missing")
	}
	ids := ts.IDs()
	if len(ids) != 2 || ids[0] != tr(2).String() {
		t.Errorf("IDs() = %v, want newest first", ids)
	}
}
