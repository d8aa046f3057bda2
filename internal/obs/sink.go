package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Sink receives every emitted record. Implementations must be safe for
// concurrent use: searchers, sweep workers, and distance workers emit
// from multiple goroutines.
type Sink interface {
	Emit(r Record)
}

// Nop is a Sink that drops everything; installing it is equivalent to
// enabling the pipeline without output (useful to measure emission cost).
type Nop struct{}

// Emit implements Sink.
func (Nop) Emit(Record) {}

// Fanout tees every record to each member sink in order — how a command
// runs a JSONL trace, the live telemetry registry/SSE hub, and a Chrome
// trace recorder off one emission stream. Members must individually be
// safe for concurrent use; Fanout adds no locking of its own.
type Fanout []Sink

// Emit implements Sink.
func (f Fanout) Emit(r Record) {
	for _, s := range f {
		s.Emit(r)
	}
}

// Memory collects records in memory — the test and inspection sink.
type Memory struct {
	mu      sync.Mutex
	records []Record
}

// Emit implements Sink.
func (m *Memory) Emit(r Record) {
	m.mu.Lock()
	m.records = append(m.records, r)
	m.mu.Unlock()
}

// Records returns a copy of everything captured so far.
func (m *Memory) Records() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, len(m.records))
	copy(out, m.records)
	return out
}

// ByName returns the captured records with the given name.
func (m *Memory) ByName(name string) []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Record
	for _, r := range m.records {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// Len returns the number of captured records.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.records)
}

// Reset discards everything captured so far. It keeps the record buffer,
// so a sink reset between phases does not grow it again.
func (m *Memory) Reset() {
	m.mu.Lock()
	clear(m.records)
	m.records = m.records[:0]
	m.mu.Unlock()
}

// JSONL writes one JSON object per record — the machine-readable trace
// format behind the CLIs' -metrics flag. Reserved keys are "ts", "kind",
// "name", "dur_ms", "trace", "span", and "parent"; field keys are
// flattened into the same object, so
// instrumentation must avoid those names. Keys are emitted sorted
// (encoding/json map order), making traces diff-friendly.
type JSONL struct {
	mu     sync.Mutex
	w      *bufio.Writer
	c      io.Closer
	f      *os.File // non-nil for file-backed sinks; enables fsync on Close
	err    error
	closed bool
	stop   chan struct{} // closes the ticker-flush goroutine, nil when none
	done   chan struct{}
}

// FlushInterval is how often a file-backed JSONL sink drains its buffer
// to the OS, bounding how much trace a crash can lose to buffering.
const FlushInterval = time.Second

// NewJSONL wraps a writer. Close (or Flush) must be called to drain the
// internal buffer.
func NewJSONL(w io.Writer) *JSONL {
	j := &JSONL{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// OpenJSONL creates (truncates) a trace file at path. File-backed sinks
// are crash-safe: the buffer is flushed every FlushInterval by a
// background ticker, and Close fsyncs before closing, so an interrupted
// run loses at most the final second of trace (plus, possibly, one torn
// trailing line — which every reader in this module tolerates, see
// ScanJSONLines).
func OpenJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: opening trace %s: %w", path, err)
	}
	j := NewJSONL(f)
	j.f = f
	j.stop = make(chan struct{})
	j.done = make(chan struct{})
	go j.flushLoop()
	return j, nil
}

func (j *JSONL) flushLoop() {
	defer close(j.done)
	t := time.NewTicker(FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			j.Flush()
		case <-j.stop:
			return
		}
	}
}

// RecordObject flattens a record into the wire object shared by the JSONL
// sink and the telemetry SSE stream: reserved keys "ts", "kind", "name",
// "dur_ms", and — for records inside a trace — "trace", "span", and
// "parent" (lowercase hex), with the record's fields merged into the same
// map.
func RecordObject(r Record) map[string]any {
	obj := make(map[string]any, len(r.Fields)+7)
	obj["ts"] = r.Time.UTC().Format("2006-01-02T15:04:05.000000Z07:00")
	obj["kind"] = r.Kind
	obj["name"] = r.Name
	if r.Dur > 0 {
		obj["dur_ms"] = float64(r.Dur.Microseconds()) / 1000
	}
	if !r.Trace.IsZero() {
		obj["trace"] = r.Trace.String()
	}
	if !r.Span.IsZero() {
		obj["span"] = r.Span.String()
	}
	if !r.Parent.IsZero() {
		obj["parent"] = r.Parent.String()
	}
	for _, f := range r.Fields {
		obj[f.Key] = f.Value
	}
	return obj
}

// Emit implements Sink.
func (j *JSONL) Emit(r Record) {
	line, err := json.Marshal(RecordObject(r))
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		if j.err == nil {
			j.err = fmt.Errorf("obs: encoding record %q: %w", r.Name, err)
		}
		return
	}
	if j.err != nil {
		return
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		j.err = err
	}
}

// Flush drains the buffer and reports the first write error.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// Close stops the ticker flusher, flushes, fsyncs file-backed sinks, and
// closes the underlying file when there is one. It is idempotent.
func (j *JSONL) Close() error {
	j.mu.Lock()
	if j.closed {
		err := j.err
		j.mu.Unlock()
		return err
	}
	j.closed = true
	j.mu.Unlock()
	if j.stop != nil {
		close(j.stop)
		<-j.done
		j.stop = nil
	}
	err := j.Flush()
	if j.f != nil {
		if serr := j.f.Sync(); serr != nil && err == nil {
			err = serr
		}
	}
	if j.c != nil {
		if cerr := j.c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// ScanJSONLines feeds each newline-terminated line of r to fn, skipping
// blank lines. A final line without a trailing newline — the torn append
// of a crashed writer — is passed to fn only if it parses as a complete
// JSON value; otherwise it is counted in the skipped return, never an
// error. It reads obs traces (schedtrace uses it). Runstate journals
// have their own reader, which takes complete lines only: runstate
// seals a torn tail before it replays, and a shared journal's
// incomplete last line is a sibling's append still in flight.
func ScanJSONLines(r io.Reader, fn func(line []byte) error) (skipped int, err error) {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		complete := rerr == nil
		line = bytes.TrimSpace(line)
		if len(line) > 0 {
			if complete || json.Valid(line) {
				if ferr := fn(line); ferr != nil {
					return skipped, ferr
				}
			} else {
				skipped++
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				return skipped, nil
			}
			return skipped, rerr
		}
	}
}
