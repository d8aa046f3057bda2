package obs

import (
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// This file is the causal-tracing layer of obs: 128-bit trace IDs, 64-bit
// span IDs, W3C traceparent interchange, and context.Context carriage, so
// one submission's journey — HTTP admission, queue wait, par workers,
// searcher restarts, sweep points, and a SIGKILL+resume replay — shares a
// single trace ID end to end.
//
// Cost model matches the rest of the package: with no sink installed,
// StartSpanCtx returns after one atomic load and the context is returned
// untouched. ID generation itself never blocks and never allocates; it is
// a seeded splitmix64 stream, so a fixed seed (SeedIDs) makes every ID of
// a run reproducible in allocation order.

// TraceID is a 128-bit W3C trace identifier. The zero value means "no
// trace".
type TraceID [16]byte

// SpanID is a 64-bit W3C span identifier. The zero value means "no span".
type SpanID [8]byte

// IsZero reports whether the ID is the absent value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the absent value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses 32 lowercase hex digits; the all-zero ID is invalid
// per the W3C spec.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("obs: trace id must be 32 hex digits, got %d", len(s))
	}
	if err := decodeLowerHex(t[:], s); err != nil {
		return TraceID{}, err
	}
	if t.IsZero() {
		return TraceID{}, fmt.Errorf("obs: all-zero trace id is invalid")
	}
	return t, nil
}

// ParseSpanID parses 16 lowercase hex digits; the all-zero ID is invalid.
func ParseSpanID(s string) (SpanID, error) {
	var id SpanID
	if len(s) != 16 {
		return id, fmt.Errorf("obs: span id must be 16 hex digits, got %d", len(s))
	}
	if err := decodeLowerHex(id[:], s); err != nil {
		return SpanID{}, err
	}
	if id.IsZero() {
		return SpanID{}, fmt.Errorf("obs: all-zero span id is invalid")
	}
	return id, nil
}

// decodeLowerHex decodes exactly len(dst)*2 lowercase hex digits. The
// W3C traceparent grammar admits only lowercase, so uppercase input is an
// error rather than being normalized away.
func decodeLowerHex(dst []byte, s string) error {
	for i := 0; i < len(s); i++ {
		c := s[i]
		var v byte
		switch {
		case c >= '0' && c <= '9':
			v = c - '0'
		case c >= 'a' && c <= 'f':
			v = c - 'a' + 10
		default:
			return fmt.Errorf("obs: invalid hex digit %q at position %d", c, i)
		}
		if i%2 == 0 {
			dst[i/2] = v << 4
		} else {
			dst[i/2] |= v
		}
	}
	return nil
}

// SpanContext is the propagated identity of one point in a trace: which
// trace, and which span is the current parent. It is what travels in a
// context.Context, a traceparent header, a job record, and a checkpoint.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
	// Sampled is the W3C sampled flag (bit 0 of trace-flags). This module
	// records every span of an enabled sink, so the flag is carried for
	// interoperability, not consulted.
	Sampled bool
}

// Valid reports whether both IDs are present.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Traceparent renders the context as a W3C traceparent header value,
// version 00: "00-<32 hex trace>-<16 hex span>-<flags>".
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.Trace.String() + "-" + sc.Span.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value. Version 00 must
// be exactly 55 characters; unknown future versions are accepted when
// their first four fields parse (per the spec's forward-compatibility
// rule), version "ff" is always invalid. The zero-value SpanContext plus
// an error comes back for anything malformed — callers treat that as "no
// inbound trace" and mint a fresh root.
func ParseTraceparent(s string) (SpanContext, error) {
	// version "-" trace-id "-" parent-id "-" trace-flags
	if len(s) < 55 {
		return SpanContext{}, fmt.Errorf("obs: traceparent too short (%d bytes)", len(s))
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, fmt.Errorf("obs: traceparent field delimiters misplaced")
	}
	var version [1]byte
	if err := decodeLowerHex(version[:], s[0:2]); err != nil {
		return SpanContext{}, fmt.Errorf("obs: traceparent version: %w", err)
	}
	if version[0] == 0xff {
		return SpanContext{}, fmt.Errorf("obs: traceparent version ff is forbidden")
	}
	if version[0] == 0 && len(s) != 55 {
		return SpanContext{}, fmt.Errorf("obs: version-00 traceparent must be 55 bytes, got %d", len(s))
	}
	if version[0] != 0 && len(s) > 55 && s[55] != '-' {
		return SpanContext{}, fmt.Errorf("obs: traceparent trailing data must be dash-separated")
	}
	trace, err := ParseTraceID(s[3:35])
	if err != nil {
		return SpanContext{}, err
	}
	span, err := ParseSpanID(s[36:52])
	if err != nil {
		return SpanContext{}, err
	}
	var flags [1]byte
	if err := decodeLowerHex(flags[:], s[53:55]); err != nil {
		return SpanContext{}, fmt.Errorf("obs: traceparent flags: %w", err)
	}
	return SpanContext{Trace: trace, Span: span, Sampled: flags[0]&0x01 != 0}, nil
}

// ---- seeded-deterministic ID generation ----

// idState is the splitmix64 state behind NewTraceID/NewSpanID. It starts
// from a process-unique value so concurrent daemons do not collide, and
// SeedIDs pins it for reproducible IDs in tests.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32 ^ 0x9e3779b97f4a7c15)
}

// SeedIDs makes ID generation deterministic: after SeedIDs(s), the k-th
// generated 64-bit word is a pure function of (s, k). Tests call it to
// pin IDs; no command does. A resumable run instead derives its root
// trace from its run identity with TraceIDFromBytes, so a rerun shares
// the interrupted run's trace.
func SeedIDs(seed int64) { idState.Store(uint64(seed)) }

// nextIDWord advances the shared splitmix64 stream by one word.
func nextIDWord() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewTraceID draws a fresh non-zero 128-bit trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		hi, lo := nextIDWord(), nextIDWord()
		for i := 0; i < 8; i++ {
			t[i] = byte(hi >> (56 - 8*i))
			t[8+i] = byte(lo >> (56 - 8*i))
		}
	}
	return t
}

// NewSpanID draws a fresh non-zero 64-bit span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		w := nextIDWord()
		for i := 0; i < 8; i++ {
			s[i] = byte(w >> (56 - 8*i))
		}
	}
	return s
}

// TraceIDFromBytes derives a trace ID from arbitrary identity bytes (a
// run-identity hash): the deterministic root-trace constructor used by
// resumable CLI runs, so an interrupted run and its resume share a trace
// by construction, not by luck. At least one bit is forced on so the
// result is never the invalid all-zero ID.
func TraceIDFromBytes(b []byte) TraceID {
	var t TraceID
	copy(t[:], b)
	if t.IsZero() {
		t[15] = 1
	}
	return t
}

// NewChild returns the context of a new span in the same trace: same
// trace ID (a fresh trace when the receiver is invalid), fresh span ID.
func (sc SpanContext) NewChild() SpanContext {
	child := SpanContext{Trace: sc.Trace, Span: NewSpanID(), Sampled: sc.Sampled}
	if sc.Trace.IsZero() {
		child.Trace = NewTraceID()
		child.Sampled = true
	}
	return child
}

// ---- context carriage ----

type spanCtxKey struct{}

// WithSpanContext attaches a span context to ctx; child spans started
// under it (StartSpanCtx) parent themselves there.
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// rootSpanCtx is the process-wide fallback span context: commands with a
// durable root trace install it (runctl), so deep experiment loops that
// still pass a bare context join the run's one trace instead of minting a
// fresh trace per top-level span.
var rootSpanCtx atomic.Pointer[SpanContext]

// SetRootSpanContext installs (or with an invalid context, clears) the
// process-wide fallback returned by SpanContextFrom when the context
// carries none.
func SetRootSpanContext(sc SpanContext) {
	if !sc.Valid() {
		rootSpanCtx.Store(nil)
		return
	}
	rootSpanCtx.Store(&sc)
}

// SpanContextFrom extracts the span context carried by ctx, falling back
// to the installed process root; the zero SpanContext when neither is set.
func SpanContextFrom(ctx context.Context) SpanContext {
	if ctx != nil {
		if sc, ok := ctx.Value(spanCtxKey{}).(SpanContext); ok {
			return sc
		}
	}
	if p := rootSpanCtx.Load(); p != nil {
		return *p
	}
	return SpanContext{}
}

// ---- ctx-aware span + event emission ----

// StartSpanCtx opens a span as a child of the context's span context and
// returns the derived context carrying the new span, so nested
// instrumentation points chain into one tree. With no sink installed it
// returns (nil, ctx) after one atomic load — the context is not even
// inspected. A context without a trace starts a fresh root trace.
func StartSpanCtx(ctx context.Context, name string, fields ...Field) (*Span, context.Context) {
	if global.Load() == nil {
		return nil, ctx
	}
	parent := SpanContextFrom(ctx)
	child := parent.NewChild()
	return StartSpanAt(child, parent.Span, name, fields...), WithSpanContext(ctx, child)
}

// StartSpanAt opens a span with an explicit identity and parent — for
// callers that minted the child context themselves before consulting obs
// (the HTTP middleware, which must echo a traceparent whether or not a
// sink is installed). Nil when no sink is installed.
func StartSpanAt(sc SpanContext, parent SpanID, name string, fields ...Field) *Span {
	if global.Load() == nil {
		return nil
	}
	return &Span{name: name, start: time.Now(), fields: fields, sc: sc, parent: parent}
}

// EventCtx emits a point event stamped with the context's trace and span,
// so discrete facts (a retry, a queue-depth change, a salvage) land inside
// the trace that caused them.
func EventCtx(ctx context.Context, name string, fields ...Field) {
	b := global.Load()
	if b == nil {
		return
	}
	sc := SpanContextFrom(ctx)
	b.s.Emit(Record{Time: time.Now(), Kind: "event", Name: name,
		Trace: sc.Trace, Span: sc.Span, Fields: fields})
}

// Wide emits one canonical wide event: a single record carrying
// everything there is to know about a unit of work (a job, a checkpoint
// unit), stamped with the context's trace. Wide events are the
// per-job/per-unit analytics contract — one JSONL line answers "what
// happened to this job" without joining dozens of narrow events.
func Wide(ctx context.Context, name string, fields ...Field) {
	b := global.Load()
	if b == nil {
		return
	}
	sc := SpanContextFrom(ctx)
	b.s.Emit(Record{Time: time.Now(), Kind: "wide", Name: name,
		Trace: sc.Trace, Span: sc.Span, Fields: fields})
}
