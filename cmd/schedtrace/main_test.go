package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"commsched/internal/obs"
	"commsched/internal/service"
)

// emitSampleTrace drives the real obs pipeline into a JSONL buffer: a
// root span with two children (one clearly longer), an event inside the
// long child, and one untraced record that must be ignored.
func emitSampleTrace(t *testing.T) (string, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	obs.SetSink(sink)
	defer obs.SetSink(nil)
	obs.SeedIDs(42)

	root, ctx := obs.StartSpanCtx(context.Background(), "service.run", obs.F("job", "j-1"))
	short, _ := obs.StartSpanCtx(ctx, "core.schedule")
	short.End(obs.F("cc", 3.25))
	long, lctx := obs.StartSpanCtx(ctx, "simnet.sweep", obs.F("points", 2))
	obs.EventCtx(lctx, "simnet.sweep_point", obs.F("rate", 0.1))
	time.Sleep(3 * time.Millisecond)
	long.End()
	root.End()
	obs.Event("untraced.noise") // no trace: must not appear in any tree
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return root.Context().Trace.String(), &buf
}

func TestTreeFromJSONL(t *testing.T) {
	traceID, buf := emitSampleTrace(t)

	b := newBuilder()
	if err := b.addObs(buf); err != nil {
		t.Fatal(err)
	}
	trees := b.build()
	if len(trees) != 1 {
		t.Fatalf("got %d trace(s), want exactly 1 (untraced records must be dropped)", len(trees))
	}
	tr := trees[0]
	if tr.id != traceID {
		t.Fatalf("trace %s, want %s", tr.id, traceID)
	}
	if tr.spans != 3 || tr.events != 1 {
		t.Fatalf("spans=%d events=%d, want 3 spans and 1 event", tr.spans, tr.events)
	}
	if len(tr.roots) != 1 || tr.roots[0].name != "service.run" {
		t.Fatalf("roots = %+v, want the single service.run root", tr.roots)
	}

	var out bytes.Buffer
	renderTree(&out, tr)
	text := out.String()
	for _, want := range []string{
		"trace " + traceID,
		"service.run",
		"core.schedule",
		"simnet.sweep",
		"simnet.sweep_point",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered tree missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "untraced.noise") {
		t.Fatalf("untraced record leaked into the tree:\n%s", text)
	}
	// The sweep slept; the schedule did not — the critical path must run
	// root → sweep, never through core.schedule.
	if want := "critical path: service.run → simnet.sweep"; !strings.Contains(text, want) {
		t.Fatalf("missing %q:\n%s", want, text)
	}
	if strings.Contains(text, "core.schedule *") {
		t.Fatalf("core.schedule wrongly marked critical:\n%s", text)
	}
}

// TestJobNodesNestUnderAdmissionSpan is the stitched view: a journaled
// job whose Span matches a span in the JSONL hangs under it; a job whose
// admission span was never captured floats to the root of its own trace.
func TestJobNodesNestUnderAdmissionSpan(t *testing.T) {
	traceID, buf := emitSampleTrace(t)

	b := newBuilder()
	if err := b.addObs(buf); err != nil {
		t.Fatal(err)
	}
	// Find the root span's ID to pose as the admission span.
	rootSpan := ""
	for _, n := range b.nodes[traceID] {
		if n.name == "service.run" {
			rootSpan = n.span
		}
	}
	if rootSpan == "" {
		t.Fatal("no service.run span captured")
	}
	now := time.Now()
	b.addJobs([]service.Job{
		{
			ID: "job-stitched", Trace: traceID, Span: rootSpan,
			State: service.StateDone, QueueWaitMs: 1.5, Attempts: 2,
			SubmittedAt: now, FinishedAt: now.Add(5 * time.Millisecond),
		},
		{
			ID: "job-orphan", Trace: "1bf7651916cd43dd8448eb211c80319d", Span: "deadbeefdeadbeef",
			State: service.StateQueued, SubmittedAt: now,
		},
		{ID: "job-untraced", State: service.StateDone}, // no trace: dropped
	})
	trees := b.build()
	if len(trees) != 2 {
		t.Fatalf("got %d trace(s), want 2", len(trees))
	}
	byID := map[string]*traceTree{}
	for _, tr := range trees {
		byID[tr.id] = tr
	}
	main := byID[traceID]
	if main == nil || main.jobs != 1 {
		t.Fatalf("stitched trace missing its job node: %+v", main)
	}
	var out bytes.Buffer
	renderTree(&out, main)
	text := out.String()
	if !strings.Contains(text, "job job-stitched") || !strings.Contains(text, "queue_wait_ms=1.5") {
		t.Fatalf("job node not rendered with its status attrs:\n%s", text)
	}
	// Nested: the job's tree line must be indented under the root span,
	// not a sibling of it.
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "─ job job-stitched") && !strings.HasPrefix(line, "   ") {
			t.Fatalf("job node not nested under its admission span:\n%s", text)
		}
	}
	orphan := byID["1bf7651916cd43dd8448eb211c80319d"]
	if orphan == nil || len(orphan.roots) != 1 || orphan.roots[0].name != "job job-orphan" {
		t.Fatalf("orphan job must form its own single-root trace: %+v", orphan)
	}
}

func TestLoadStateJobsMissingDir(t *testing.T) {
	if _, err := service.LoadJobs(t.TempDir()); err == nil {
		t.Fatal("an empty directory must be reported, not treated as zero jobs")
	}
}
