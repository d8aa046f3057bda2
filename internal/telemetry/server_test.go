package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"commsched/internal/obs"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(NewRegistry(), NewHub())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	code, body, _ := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	var payload struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("healthz is not JSON: %v\n%s", err, body)
	}
	if payload.Status != "ok" || payload.Uptime < 0 {
		t.Errorf("healthz = %+v, want status ok with non-negative uptime", payload)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	s.Registry.Emit(obs.Record{Kind: "event", Name: "simnet.sweep_point"})
	s.Registry.Emit(obs.Record{Kind: "span", Name: "simnet.run", Dur: time.Second})

	code, body, hdr := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	for _, want := range []string{
		`commsched_records_total{kind="event",name="simnet.sweep_point"} 1`,
		`commsched_span_duration_seconds_sum{name="simnet.run"} 1`,
		"commsched_sse_subscribers 0",
		"commsched_sse_records_total",
		"commsched_sse_dropped_total",
		"commsched_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestRunsEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	s.Registry.Emit(obs.Record{Kind: "event", Name: "run.manifest",
		Fields: []obs.Field{obs.F("command", "netsim")}})
	s.Registry.Emit(obs.Record{Kind: "event", Name: "progress",
		Fields: []obs.Field{obs.F("task", "simnet.sweep"), obs.F("done", int64(3)), obs.F("total", int64(9))}})

	code, body, hdr := get(t, ts.URL+"/runs")
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var payload struct {
		Manifest map[string]any  `json:"manifest"`
		Progress []ProgressState `json:"progress"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/runs is not JSON: %v\n%s", err, body)
	}
	if payload.Manifest["command"] != "netsim" {
		t.Errorf("manifest = %v, want command netsim", payload.Manifest)
	}
	if len(payload.Progress) != 1 || payload.Progress[0].Done != 3 {
		t.Errorf("progress = %+v, want simnet.sweep at 3/9", payload.Progress)
	}
}

// TestEventsStream exercises the full SSE path over a real connection:
// subscribe, receive a record mid-stream, disconnect.
func TestEventsStream(t *testing.T) {
	s, ts := newTestServer(t)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	// The handler subscribes before writing its greeting comment, so keep
	// emitting until the stream yields a record — no sleep calibration.
	done := make(chan struct{})
	defer close(done)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				s.Hub.Emit(obs.Record{Kind: "event", Name: "live.ping",
					Fields: []obs.Field{obs.F("n", int64(1))}})
			}
		}
	}()

	scanner := bufio.NewScanner(resp.Body)
	sawEvent := false
	for scanner.Scan() {
		line := scanner.Text()
		if line == "event: record" {
			sawEvent = true
			continue
		}
		if sawEvent && strings.HasPrefix(line, "data: ") {
			var obj map[string]any
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &obj); err != nil {
				t.Fatalf("SSE data is not JSON: %v\n%s", err, line)
			}
			if obj["name"] != "live.ping" {
				t.Errorf("streamed record = %v, want live.ping", obj)
			}
			return // success: cancel() and the deferred close tear down
		}
	}
	t.Fatalf("stream ended without a record event: %v", scanner.Err())
}

// TestServerStartClose covers the real listener path used by -serve,
// including ":0" port selection.
func TestServerStartClose(t *testing.T) {
	s := NewServer(NewRegistry(), NewHub())
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != addr || addr == "" {
		t.Fatalf("Addr() = %q, Start returned %q", s.Addr(), addr)
	}
	code, _, _ := get(t, fmt.Sprintf("http://%s/healthz", addr))
	if code != http.StatusOK {
		t.Fatalf("healthz over the bound listener = %d, want 200", code)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Error("listener still accepting connections after Close")
	}
}

// TestFlagsFillOptions pins the flag names the commands share (CI's
// smoke jobs pass them) and the stderr banner Flags installs.
func TestFlagsFillOptions(t *testing.T) {
	opts := Flags()
	args := []string{"-metrics", "m.jsonl", "-cpuprofile", "cpu.out", "-memprofile", "mem.out",
		"-serve", ":0", "-trace", "trace.json"}
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Options{Serve: ":0", Trace: "trace.json", Metrics: "m.jsonl",
		CPUProfile: "cpu.out", MemProfile: "mem.out", Banner: os.Stderr}
	if *opts != want {
		t.Fatalf("Flags parsed %+v, want %+v", *opts, want)
	}
}

// TestServiceLifecycle drives the Options-based wiring the commands use:
// with -serve and -trace set, records emitted through obs reach /metrics,
// and Close finalizes a loadable trace file.
func TestServiceLifecycle(t *testing.T) {
	dir := t.TempDir()
	tracePath := dir + "/trace.json"
	jsonlPath := dir + "/trace.jsonl"
	cpuPath, memPath := dir+"/cpu.pprof", dir+"/heap.pprof"
	var banner strings.Builder
	svc, err := Start(Options{Serve: "127.0.0.1:0", Trace: tracePath, Metrics: jsonlPath,
		CPUProfile: cpuPath, MemProfile: memPath, Banner: &banner})
	if err != nil {
		t.Fatal(err)
	}
	defer obs.SetSink(nil)
	if !obs.Enabled() {
		t.Fatal("obs not enabled after Start with sinks configured")
	}
	if !strings.Contains(banner.String(), svc.Addr) {
		t.Errorf("banner %q does not mention the bound address %s", banner.String(), svc.Addr)
	}

	obs.Event("smoke.event", obs.F("value", int64(42)))
	sp := obs.StartSpan("smoke.span")
	sp.End()

	_, body, _ := get(t, "http://"+svc.Addr+"/metrics")
	if !strings.Contains(body, `commsched_records_total{kind="event",name="smoke.event"} 1`) {
		t.Errorf("/metrics missing the live event:\n%s", body)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if obs.Enabled() {
		t.Error("obs still enabled after Close")
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var p tracePayload
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(p.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}
	lines, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(lines), `"name":"smoke.event"`) {
		t.Errorf("JSONL trace missing the event:\n%s", lines)
	}
	for _, path := range []string{cpuPath, memPath} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", path, err)
		}
	}
}

// TestTraceEndpoint checks GET /trace/{id}: 404 without a store or for
// unknown IDs, the JSON trace view otherwise.
func TestTraceEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	if code, _, _ := get(t, ts.URL+"/trace/deadbeef"); code != http.StatusNotFound {
		t.Fatalf("without a store, status = %d, want 404", code)
	}
	s.Traces = NewTraces(0, 0)
	tr, err := obs.ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	if err != nil {
		t.Fatal(err)
	}
	s.Traces.Emit(obs.Record{Time: time.Unix(1, 0), Kind: "span", Name: "service.run", Trace: tr})
	code, body, hdr := get(t, ts.URL+"/trace/"+tr.String())
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var payload struct {
		Trace   string           `json:"trace"`
		Records []map[string]any `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("trace view is not JSON: %v\n%s", err, body)
	}
	if payload.Trace != tr.String() || len(payload.Records) != 1 || payload.Records[0]["name"] != "service.run" {
		t.Errorf("trace view = %+v", payload)
	}
	if code, _, _ := get(t, ts.URL+"/trace/unknown"); code != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", code)
	}
}

// TestMetricsContentNegotiation checks the Accept-header switch between
// Prometheus 0.0.4 and OpenMetrics (exemplars + # EOF).
func TestMetricsContentNegotiation(t *testing.T) {
	s, ts := newTestServer(t)
	tr, err := obs.ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	if err != nil {
		t.Fatal(err)
	}
	s.Registry.Emit(obs.Record{Time: time.Unix(5, 0), Kind: "span", Name: "http.request",
		Dur: 3 * time.Millisecond, Trace: tr,
		Fields: []obs.Field{obs.F("endpoint", "/jobs")}})

	req, err := http.NewRequest("GET", ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/openmetrics-text") {
		t.Errorf("openmetrics content type = %q", ct)
	}
	if !strings.HasSuffix(string(body), "# EOF\n") {
		t.Error("openmetrics body missing # EOF terminator")
	}
	if !strings.Contains(string(body), `# {trace_id="`+tr.String()+`"}`) {
		t.Error("openmetrics body missing the trace exemplar")
	}

	_, plain, hdr := get(t, ts.URL+"/metrics")
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("default content type = %q", ct)
	}
	if strings.Contains(plain, "trace_id") || strings.Contains(plain, "# EOF") {
		t.Error("default exposition must stay plain Prometheus 0.0.4")
	}
}
