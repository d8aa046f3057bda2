package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// restoreSink guards the package-global sink across tests.
func restoreSink(t *testing.T) {
	t.Helper()
	prev := CurrentSink()
	t.Cleanup(func() { SetSink(prev) })
}

func TestDisabledByDefault(t *testing.T) {
	restoreSink(t)
	SetSink(nil)
	if Enabled() {
		t.Fatal("expected observability off with no sink installed")
	}
	// All helpers must be safe no-ops.
	Event("x", F("k", 1))
	Emit(Record{Kind: "event", Name: "y"})
	StartSpan("z").End()
	var sp *Span
	sp.End() // nil receiver
}

func TestMemorySinkCapturesEventsAndSpans(t *testing.T) {
	restoreSink(t)
	mem := &Memory{}
	SetSink(mem)
	Event("search.restart", F("restart", 3), F("best", 1.5))
	sp := StartSpan("core.schedule", F("seed", int64(42)))
	time.Sleep(time.Millisecond)
	sp.End(F("cc", 2.0))
	SetSink(nil)
	Event("dropped")

	if got := mem.Len(); got != 2 {
		t.Fatalf("captured %d records, want 2", got)
	}
	evs := mem.ByName("search.restart")
	if len(evs) != 1 || evs[0].Kind != "event" {
		t.Fatalf("bad event records: %+v", evs)
	}
	spans := mem.ByName("core.schedule")
	if len(spans) != 1 || spans[0].Kind != "span" {
		t.Fatalf("bad span records: %+v", spans)
	}
	if spans[0].Dur <= 0 {
		t.Fatalf("span duration not recorded: %v", spans[0].Dur)
	}
	if len(spans[0].Fields) != 2 {
		t.Fatalf("span fields not merged: %+v", spans[0].Fields)
	}
}

func TestJSONLFormat(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Emit(Record{Time: time.Unix(0, 0), Kind: "event", Name: "a", Fields: []Field{F("x", 1), F("s", "v")}})
	j.Emit(Record{Time: time.Unix(1, 0), Kind: "span", Name: "b", Dur: 1500 * time.Microsecond})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %q not JSON: %v", sc.Text(), err)
		}
		lines = append(lines, obj)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0]["name"] != "a" || lines[0]["x"] != float64(1) || lines[0]["s"] != "v" {
		t.Fatalf("bad event line: %v", lines[0])
	}
	if lines[1]["kind"] != "span" || lines[1]["dur_ms"] != 1.5 {
		t.Fatalf("bad span line: %v", lines[1])
	}
}

func TestOpenJSONLWritesFile(t *testing.T) {
	restoreSink(t)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	j, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	SetSink(j)
	Event("hello", F("n", 7))
	SetSink(nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(data), &obj); err != nil {
		t.Fatalf("trace not parseable: %v", err)
	}
	if obj["name"] != "hello" || obj["n"] != float64(7) {
		t.Fatalf("bad trace content: %v", obj)
	}
}

func TestConcurrentEmission(t *testing.T) {
	restoreSink(t)
	mem := &Memory{}
	SetSink(mem)
	defer SetSink(nil)
	var wg sync.WaitGroup
	const workers, each = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				Event("tick", F("worker", w), F("i", i))
			}
		}(w)
	}
	wg.Wait()
	if got := mem.Len(); got != workers*each {
		t.Fatalf("captured %d records, want %d", got, workers*each)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("q", []float64{0, 1, 2, 4})
	for _, v := range []float64{0, 0, 1, 3, 100} {
		h.Observe(v)
	}
	want := []int64{2, 1, 0, 1, 1}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts %v, want %v", got, want)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	if h.Mean() != (0+0+1+3+100)/5.0 {
		t.Fatalf("mean %v", h.Mean())
	}
	r := h.Record()
	if r.Kind != "hist" || r.Name != "q" {
		t.Fatalf("bad record: %+v", r)
	}
}

func TestPowersOfTwoBounds(t *testing.T) {
	got := PowersOfTwoBounds(4)
	want := []float64{0, 1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCPUProfileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	stop, err := StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile is non-trivial.
	x := 0
	for i := 0; i < 1_000_00; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile missing or empty: %v", err)
	}
}

// TestCLISetup makes the obs calls a command's telemetry setup makes, in
// order: a JSONL sink installed and then uninstalled and closed, a CPU
// profile started and stopped, and a heap profile written. Each output
// file must be non-empty afterwards.
func TestCLISetup(t *testing.T) {
	restoreSink(t)
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.jsonl")
	cpu := filepath.Join(dir, "cpu.pprof")
	heap := filepath.Join(dir, "heap.pprof")
	j, err := OpenJSONL(metrics)
	if err != nil {
		t.Fatal(err)
	}
	stopCPU, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	SetSink(j)
	if !Enabled() {
		t.Fatal("sink not installed")
	}
	Event("run", F("ok", true))
	SetSink(nil)
	if Enabled() {
		t.Fatal("sink not uninstalled")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stopCPU(); err != nil {
		t.Fatal(err)
	}
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{metrics, cpu, heap} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s missing or empty: %v", path, err)
		}
	}
}

// TestDisabledPathsDoNotAllocate: with no sink installed, an
// Enabled()-guarded Event, StartSpan(...).End() and StartSpanCtx(...)
// with End() allocate nothing, so instrumentation costs no garbage when
// tracing is off.
func TestDisabledPathsDoNotAllocate(t *testing.T) {
	restoreSink(t)
	SetSink(nil)
	ctx := context.Background()
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"guarded Event", func() {
			if Enabled() {
				Event("never", F("i", 1))
			}
		}},
		{"StartSpan.End", func() { StartSpan("never").End() }},
		{"StartSpanCtx.End", func() {
			sp, _ := StartSpanCtx(ctx, "never")
			sp.End()
		}},
	} {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s with no sink: %v allocations per call, want 0", c.name, allocs)
		}
	}
}

// BenchmarkDisabledEvent measures the default-path cost the acceptance
// criterion bounds: with no sink installed, the guard must be one atomic
// load (sub-nanosecond on current hardware).
func BenchmarkDisabledEvent(b *testing.B) {
	SetSink(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Enabled() {
			Event("never", F("i", i))
		}
	}
}

// BenchmarkDisabledSpan measures the nil-span fast path.
func BenchmarkDisabledSpan(b *testing.B) {
	SetSink(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StartSpan("never").End()
	}
}

// BenchmarkMemoryEvent measures the enabled path into the memory sink.
// The sink is reset every 1,024 events, so the heap stays bounded and the
// benchmark times Event and Emit rather than the collector over a growing
// record slice.
func BenchmarkMemoryEvent(b *testing.B) {
	mem := &Memory{}
	SetSink(mem)
	defer SetSink(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Event("tick", F("i", i))
		if i%1024 == 1023 {
			mem.Reset()
		}
	}
}
