package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"commsched/internal/obs"
)

// tracePayload mirrors the Chrome trace-event file schema.
type tracePayload struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// buildTrace feeds a Trace a mix of worker spans, nested and overlapping
// anonymous spans, a periodic simulator sample, a histogram flush, and a
// plain event, then closes it into buf.
func buildTrace(t *testing.T, buf *bytes.Buffer) tracePayload {
	t.Helper()
	tr := NewTrace(buf)
	base := time.Unix(100, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	span := func(name string, startMS, durMS int, fields ...obs.Field) {
		tr.Emit(obs.Record{Kind: "span", Name: name, Time: at(startMS),
			Dur: time.Duration(durMS) * time.Millisecond, Fields: fields})
	}
	span("outer", 0, 10)
	span("inner", 2, 3)   // nests inside outer on the same lane
	span("overlap", 4, 8) // ends after outer: needs its own lane
	span("item", 1, 2, obs.F("worker", 0))
	span("item", 5, 2, obs.F("worker", 0))
	span("item", 1, 4, obs.F("worker", 1))
	tr.Emit(obs.Record{Kind: "event", Name: "simnet.sample", Time: at(3),
		Fields: []obs.Field{obs.F("rate", 0.125), obs.F("queue_flits", int64(7)), obs.F("active_worms", int64(2))}})
	tr.Emit(obs.Record{Kind: "hist", Name: "simnet.queue_occupancy", Time: at(6),
		Fields: []obs.Field{obs.F("mean", 1.5), obs.F("count", int64(12))}})
	tr.Emit(obs.Record{Kind: "event", Name: "search.restart", Time: at(7),
		Fields: []obs.Field{obs.F("restart", int64(1))}})
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var p tracePayload
	if err := json.Unmarshal(buf.Bytes(), &p); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	return p
}

// TestTraceSchema validates the structural invariants a trace viewer
// relies on: valid JSON, known phases, monotonically non-decreasing
// timestamps, and — the one B/E semantics require — properly matched
// begin/end pairs per (pid, tid) lane.
func TestTraceSchema(t *testing.T) {
	var buf bytes.Buffer
	p := buildTrace(t, &buf)

	if p.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", p.DisplayTimeUnit)
	}
	if len(p.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}

	valid := map[string]bool{"B": true, "E": true, "C": true, "i": true, "M": true}
	prevTs := -1.0
	stacks := map[[2]int][]string{} // (pid,tid) -> open span names
	begins, ends := 0, 0
	for i, ev := range p.TraceEvents {
		if ev.Name == "" || !valid[ev.Ph] {
			t.Fatalf("event %d: missing name or bad phase %+v", i, ev)
		}
		if ev.Ph == "M" {
			continue
		}
		if ev.Ts < 0 {
			t.Fatalf("event %d (%s): negative ts %v", i, ev.Name, ev.Ts)
		}
		if ev.Ts < prevTs {
			t.Fatalf("event %d (%s): ts %v decreases from %v", i, ev.Name, ev.Ts, prevTs)
		}
		prevTs = ev.Ts
		key := [2]int{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "B":
			begins++
			stacks[key] = append(stacks[key], ev.Name)
		case "E":
			ends++
			st := stacks[key]
			if len(st) == 0 {
				t.Fatalf("event %d: E %q on tid %d with no open span", i, ev.Name, ev.Tid)
			}
			if top := st[len(st)-1]; top != ev.Name {
				t.Fatalf("event %d: E %q closes open span %q on tid %d", i, ev.Name, top, ev.Tid)
			}
			stacks[key] = st[:len(st)-1]
		case "i":
			if ev.S == "" {
				t.Errorf("event %d: instant %q without a scope", i, ev.Name)
			}
		}
	}
	if begins != 6 || ends != 6 {
		t.Errorf("B/E counts = %d/%d, want 6/6", begins, ends)
	}
	for key, st := range stacks {
		if len(st) != 0 {
			t.Errorf("lane %v left %d spans open: %v", key, len(st), st)
		}
	}
}

// TestTraceLanes checks the lane assignment: worker spans land on their
// worker's named thread, overlapping anonymous spans get distinct lanes,
// and counter tracks exist for the simulator samples.
func TestTraceLanes(t *testing.T) {
	var buf bytes.Buffer
	p := buildTrace(t, &buf)

	laneNames := map[int]string{}
	tidOf := map[string]int{} // B-event name+start -> tid
	counters := map[string]bool{}
	for _, ev := range p.TraceEvents {
		switch ev.Ph {
		case "M":
			if name, ok := ev.Args["name"].(string); ok {
				laneNames[ev.Tid] = name
			}
		case "B":
			tidOf[fmt.Sprintf("%s@%v", ev.Name, ev.Ts)] = ev.Tid
		case "C":
			counters[ev.Name] = true
		}
	}
	// Worker spans: tid is 1+worker with a "par worker N" label.
	if tid := tidOf["item@1000"]; tid != 1 && tid != 2 {
		t.Errorf("worker item span on tid %d, want a worker lane (1 or 2)", tid)
	}
	for w := 0; w <= 1; w++ {
		if got := laneNames[1+w]; got != fmt.Sprintf("par worker %d", w) {
			t.Errorf("tid %d label = %q, want par worker %d", 1+w, got, w)
		}
	}
	// outer and overlap cannot share a lane (overlap outlives outer).
	if a, b := tidOf["outer@0"], tidOf["overlap@4000"]; a == b {
		t.Errorf("outer and overlap share tid %d despite overlapping lifetimes", a)
	}
	// inner nests inside outer on the same lane.
	if a, b := tidOf["outer@0"], tidOf["inner@2000"]; a != b {
		t.Errorf("inner (tid %d) did not nest into outer's lane (tid %d)", b, a)
	}
	wantCounters := []string{
		"simnet.queue_flits rate=0.125",
		"simnet.active_worms rate=0.125",
		"simnet.queue_occupancy",
	}
	for _, name := range wantCounters {
		if !counters[name] {
			t.Errorf("missing counter track %q (have %v)", name, counters)
		}
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

func TestTraceClosePropagatesWriteError(t *testing.T) {
	tr := NewTrace(failWriter{})
	tr.Emit(obs.Record{Kind: "event", Name: "x", Time: time.Unix(1, 0)})
	if err := tr.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close error = %v, want the writer's failure", err)
	}
	// Emitting after Close must be a safe no-op.
	tr.Emit(obs.Record{Kind: "event", Name: "y", Time: time.Unix(2, 0)})
	if err := tr.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}
