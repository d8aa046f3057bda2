// Package obs is the repo's zero-dependency observability layer: point
// events, span-style timers with trace context, progress records, and
// fixed-bucket histograms, all flowing through one pluggable Sink.
//
// The paper's claims are quantitative (Cc as a bandwidth proxy, Tabu
// convergence within ~20 iterations, saturation-point shifts in the
// wormhole simulator), so the instrumented hot paths — searchers, the
// distance-table construction, and the flit-level simulator — emit
// machine-readable records that make a whole run reproducible and
// diagnosable from its trace.
//
// Cost model: the default state has no sink installed and every emission
// helper returns immediately after one atomic pointer load; hot loops
// additionally guard with Enabled() so that field slices are never built.
// Installing a sink (SetSink, or telemetry.Start from a command's
// -metrics, -serve or -trace flag) turns the stream on process-wide.
package obs

import (
	"sync/atomic"
	"time"
)

// Field is one key/value attribute of a Record. Values should be plain
// scalars, strings, or small slices so every sink can encode them.
type Field struct {
	Key   string
	Value any
}

// F builds a Field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Record is one observability datum. Kind is "event" for point-in-time
// facts, "span" for timed regions (Dur is set), "hist" for flushed
// histograms (bucket data travels in Fields), and "wide" for canonical
// per-unit wide events (see Wide).
type Record struct {
	// Time is the event time (span start time for spans).
	Time time.Time
	// Kind is "event", "span", "hist", or "wide".
	Kind string
	// Name identifies the instrumentation point, e.g. "search.restart".
	Name string
	// Dur is the elapsed time of a span (zero otherwise).
	Dur time.Duration
	// Trace / Span / Parent are the causal identity of the record: the
	// trace it belongs to, its own span ID (spans only), and the parent
	// span. All zero for records emitted outside any trace.
	Trace  TraceID
	Span   SpanID
	Parent SpanID
	// Fields carries the record's attributes.
	Fields []Field
}

// sinkBox wraps the Sink interface value so the global can live in an
// atomic.Pointer.
type sinkBox struct{ s Sink }

var global atomic.Pointer[sinkBox]

// Enabled reports whether a sink is installed. Hot loops check it before
// assembling fields; a false result costs one atomic load.
func Enabled() bool { return global.Load() != nil }

// SetSink installs the process-wide sink. Passing nil uninstalls it and
// restores the free default. The sink must be safe for concurrent use.
func SetSink(s Sink) {
	if s == nil {
		global.Store(nil)
		return
	}
	global.Store(&sinkBox{s: s})
}

// CurrentSink returns the installed sink, or nil when observability is
// off.
func CurrentSink() Sink {
	if b := global.Load(); b != nil {
		return b.s
	}
	return nil
}

// Emit forwards a fully built record to the sink; it is dropped when no
// sink is installed. A zero Time is stamped with the current time.
func Emit(r Record) {
	b := global.Load()
	if b == nil {
		return
	}
	if r.Time.IsZero() {
		r.Time = time.Now()
	}
	b.s.Emit(r)
}

// Event emits a point-in-time record.
func Event(name string, fields ...Field) {
	b := global.Load()
	if b == nil {
		return
	}
	b.s.Emit(Record{Time: time.Now(), Kind: "event", Name: name, Fields: fields})
}

// Progress emits a standardized progress event for a long-running task:
// done items out of total. Sinks that aggregate (the telemetry registry)
// turn these into live progress/ETA gauges keyed by task; the JSONL sink
// records them like any other event. No-op when observability is off.
func Progress(task string, done, total int64) {
	b := global.Load()
	if b == nil {
		return
	}
	b.s.Emit(Record{Time: time.Now(), Kind: "event", Name: "progress",
		Fields: []Field{F("task", task), F("done", done), F("total", total)}})
}

// Span is a timed region. StartSpan returns nil when observability is
// off, and a nil *Span is safe to End — call sites stay branchless:
//
//	defer obs.StartSpan("core.schedule").End()
type Span struct {
	name   string
	start  time.Time
	fields []Field
	sc     SpanContext
	parent SpanID
}

// Context returns the span's own span context (zero for spans opened with
// the trace-less StartSpan, and for a nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// StartSpan opens a span; the fields given here are recorded alongside
// any fields passed to End.
func StartSpan(name string, fields ...Field) *Span {
	if global.Load() == nil {
		return nil
	}
	// When a process root trace is installed (runctl), even legacy
	// context-free spans join it as direct children, so no
	// instrumentation point falls outside the run's trace.
	if p := rootSpanCtx.Load(); p != nil {
		return &Span{name: name, start: time.Now(), fields: fields, sc: p.NewChild(), parent: p.Span}
	}
	return &Span{name: name, start: time.Now(), fields: fields}
}

// End closes the span and emits its record. Extra fields are appended to
// the ones given at StartSpan. End on a nil span is a no-op.
func (s *Span) End(fields ...Field) {
	if s == nil {
		return
	}
	b := global.Load()
	if b == nil {
		return
	}
	b.s.Emit(Record{
		Time:   s.start,
		Kind:   "span",
		Name:   s.name,
		Dur:    time.Since(s.start),
		Trace:  s.sc.Trace,
		Span:   s.sc.Span,
		Parent: s.parent,
		Fields: append(s.fields, fields...),
	})
}
