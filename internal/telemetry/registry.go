// Package telemetry turns the obs record stream into live, inspectable
// state for long-running runs: a snapshotting metrics registry with a
// Prometheus text exposition (/metrics), a Server-Sent-Events fan-out of
// raw records (/events), run manifests plus progress/ETA gauges (/runs),
// and a Chrome trace-event recorder (-trace) whose output loads in
// Perfetto / chrome://tracing.
//
// The package sits strictly downstream of obs: instrumented code keeps
// emitting through the one pluggable sink, and telemetry components are
// just sinks composed with obs.Fanout. With no -serve/-trace flag nothing
// here is constructed and the obs disabled path (one atomic load) is
// untouched.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"commsched/internal/obs"
)

// Registry aggregates the record stream into metric families that can be
// exposed at any moment, concurrently with ingestion. It is an obs.Sink.
//
// The mapping from records to families is:
//
//   - every record increments commsched_records_total{kind,name}
//   - spans accumulate commsched_span_duration_seconds_{count,sum}{name}
//   - events carrying a numeric "value" field set commsched_value{name}
//   - "hist" records snapshot commsched_hist_{bucket,sum,count}{name}
//   - "progress" events update commsched_progress_*{task} and the ETA
//   - "run.manifest" events are retained verbatim for /runs
//   - "runstate.status" events (the durable checkpoint store's state) are
//     retained verbatim for /runs, so an operator can see whether a run
//     is resumable and how many units it has replayed; their numeric
//     fields also populate the commsched_runstate gauge family
//   - "lease.status" events (the distributed pool's counters) are
//     retained for /runs and populate the commsched_lease gauge family
type Registry struct {
	// now is the clock, swappable in tests for a deterministic ETA.
	now func() time.Time

	mu       sync.Mutex
	started  time.Time
	records  map[[2]string]int64 // {kind, name} -> count
	spans    map[string]*spanStats
	values   map[string]float64
	hists    map[string]*histSnapshot
	progress map[string]*ProgressState
	manifest map[string]any
	runstate map[string]any
	lease    map[string]any
	// runstateGauges/leaseGauges hold the numeric fields of the latest
	// runstate.status / lease.status events, exposed as dedicated metric
	// families so chaos runs are auditable straight from /metrics.
	runstateGauges map[string]float64
	leaseGauges    map[string]float64
	// RED/SLO latency histograms with per-bucket exemplars (see slo.go).
	httpLatency  map[string]*latencySeries // by endpoint
	stateLatency map[string]*latencySeries // by job state
}

type spanStats struct {
	count int64
	sum   float64 // seconds
}

type histSnapshot struct {
	bounds []float64
	counts []int64
	count  int64
	sum    float64
}

// ProgressState is the live view of one named long-running task, derived
// from its "progress" events.
type ProgressState struct {
	// Task names the tracked loop ("simnet.sweep", "search.tabu", ...).
	Task string `json:"task"`
	// Done and Total are the last reported item counts.
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
	// Ratio is Done/Total in [0,1] (0 when Total is unknown).
	Ratio float64 `json:"ratio"`
	// ETASeconds extrapolates the remaining time from the observed rate;
	// negative when no estimate is possible yet.
	ETASeconds float64 `json:"eta_seconds"`
	// StartedAt and UpdatedAt bracket the task's observed lifetime.
	StartedAt time.Time `json:"started_at"`
	UpdatedAt time.Time `json:"updated_at"`
}

// NewRegistry returns an empty registry ready to ingest records.
func NewRegistry() *Registry {
	r := &Registry{now: time.Now}
	r.started = r.now()
	r.reset()
	return r
}

func (g *Registry) reset() {
	g.records = make(map[[2]string]int64)
	g.spans = make(map[string]*spanStats)
	g.values = make(map[string]float64)
	g.hists = make(map[string]*histSnapshot)
	g.progress = make(map[string]*ProgressState)
	g.manifest = nil
	g.runstate = nil
	g.lease = nil
	g.runstateGauges = make(map[string]float64)
	g.leaseGauges = make(map[string]float64)
	g.httpLatency = make(map[string]*latencySeries)
	g.stateLatency = make(map[string]*latencySeries)
}

// Emit implements obs.Sink.
func (g *Registry) Emit(r obs.Record) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.records[[2]string{r.Kind, r.Name}]++
	switch r.Kind {
	case "span":
		st := g.spans[r.Name]
		if st == nil {
			st = &spanStats{}
			g.spans[r.Name] = st
		}
		st.count++
		st.sum += r.Dur.Seconds()
		if r.Name == "http.request" {
			if ep, ok := fieldString(r, "endpoint"); ok && ep != "" {
				g.observeLatency(g.httpLatency, ep, r.Dur.Seconds(), r)
			}
		}
	case "hist":
		g.ingestHist(r)
	}
	switch r.Name {
	case "service.latency":
		if state, ok := fieldString(r, "state"); ok && state != "" {
			if secs, ok := fieldFloat(r, "seconds"); ok {
				g.observeLatency(g.stateLatency, state, secs, r)
			}
		}
	case "progress":
		g.ingestProgress(r)
	case "run.manifest":
		g.manifest = obs.RecordObject(r)
	case "runstate.status":
		g.runstate = obs.RecordObject(r)
		collectNumericFields(r, g.runstateGauges)
	case "lease.status":
		g.lease = obs.RecordObject(r)
		collectNumericFields(r, g.leaseGauges)
	default:
		if v, ok := fieldFloat(r, "value"); ok {
			g.values[r.Name] = v
		}
	}
}

// ingestHist stores the latest flushed histogram under its name (callers
// flush cumulative histograms, so last-wins is the current snapshot).
func (g *Registry) ingestHist(r obs.Record) {
	h := &histSnapshot{}
	for _, f := range r.Fields {
		switch f.Key {
		case "bounds":
			if b, ok := f.Value.([]float64); ok {
				h.bounds = b
			}
		case "counts":
			if c, ok := f.Value.([]int64); ok {
				h.counts = c
			}
		case "count":
			if v, ok := toFloat(f.Value); ok {
				h.count = int64(v)
			}
		case "sum":
			if v, ok := toFloat(f.Value); ok {
				h.sum = v
			}
		}
	}
	if len(h.counts) != len(h.bounds)+1 {
		return // malformed flush; drop rather than expose garbage
	}
	g.hists[r.Name] = h
}

func (g *Registry) ingestProgress(r obs.Record) {
	task, _ := fieldString(r, "task")
	if task == "" {
		return
	}
	done, _ := fieldFloat(r, "done")
	total, _ := fieldFloat(r, "total")
	now := g.now()
	st := g.progress[task]
	if st == nil || int64(done) < st.Done {
		// First sight, or the task restarted (done went backwards).
		st = &ProgressState{Task: task, StartedAt: now}
		g.progress[task] = st
	}
	st.Done = int64(done)
	st.Total = int64(total)
	st.UpdatedAt = now
	st.Ratio = 0
	st.ETASeconds = -1
	if st.Total > 0 {
		st.Ratio = float64(st.Done) / float64(st.Total)
	}
	if elapsed := st.UpdatedAt.Sub(st.StartedAt).Seconds(); st.Done > 0 && st.Total >= st.Done && elapsed > 0 {
		st.ETASeconds = elapsed * float64(st.Total-st.Done) / float64(st.Done)
	}
}

// Progress returns the tracked tasks sorted by name.
func (g *Registry) Progress() []ProgressState {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]ProgressState, 0, len(g.progress))
	for _, st := range g.progress {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}

// Manifest returns the last ingested run.manifest record (nil before the
// producing command emitted one).
func (g *Registry) Manifest() map[string]any {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.manifest == nil {
		return nil
	}
	out := make(map[string]any, len(g.manifest))
	for k, v := range g.manifest {
		out[k] = v
	}
	return out
}

// Runstate returns the last ingested runstate.status record — the
// durable checkpoint store's counters — or nil when the run is not
// checkpointed.
func (g *Registry) Runstate() map[string]any {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.runstate == nil {
		return nil
	}
	out := make(map[string]any, len(g.runstate))
	for k, v := range g.runstate {
		out[k] = v
	}
	return out
}

// Lease returns the last ingested lease.status record — the distributed
// pool's counters — or nil when the run is not distributed.
func (g *Registry) Lease() map[string]any {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lease == nil {
		return nil
	}
	out := make(map[string]any, len(g.lease))
	for k, v := range g.lease {
		out[k] = v
	}
	return out
}

// RunsJSON renders the /runs payload: the run manifest (when seen), the
// durable-run checkpoint state (when the run is resumable), the lease
// pool state (when the run is distributed), plus the live progress
// table.
func (g *Registry) RunsJSON() ([]byte, error) {
	payload := struct {
		Manifest map[string]any  `json:"manifest,omitempty"`
		Runstate map[string]any  `json:"runstate,omitempty"`
		Lease    map[string]any  `json:"lease,omitempty"`
		Progress []ProgressState `json:"progress"`
	}{Manifest: g.Manifest(), Runstate: g.Runstate(), Lease: g.Lease(), Progress: g.Progress()}
	if payload.Progress == nil {
		payload.Progress = []ProgressState{}
	}
	return json.MarshalIndent(payload, "", "  ")
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, version 0.0.4. Families and series are emitted in sorted order,
// so two registries with the same contents produce byte-identical output
// (the golden-test and diff-friendly property).
func (g *Registry) WritePrometheus(w io.Writer) error {
	return g.writeExposition(w, false)
}

// writeExposition is the shared renderer behind WritePrometheus (bare)
// and WriteOpenMetrics (exemplars on latency buckets; the caller appends
// the "# EOF" terminator).
func (g *Registry) writeExposition(w io.Writer, exemplars bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var b strings.Builder

	b.WriteString("# HELP commsched_records_total Observability records ingested, by kind and instrumentation point.\n")
	b.WriteString("# TYPE commsched_records_total counter\n")
	forSortedKeys2(g.records, func(k [2]string, v int64) {
		fmt.Fprintf(&b, "commsched_records_total{kind=%q,name=%q} %d\n", k[0], k[1], v)
	})

	b.WriteString("# HELP commsched_span_duration_seconds Cumulative wall time spent inside each span.\n")
	b.WriteString("# TYPE commsched_span_duration_seconds counter\n")
	forSortedKeys(g.spans, func(name string, st *spanStats) {
		fmt.Fprintf(&b, "commsched_span_duration_seconds_count{name=%q} %d\n", name, st.count)
		fmt.Fprintf(&b, "commsched_span_duration_seconds_sum{name=%q} %s\n", name, formatFloat(st.sum))
	})

	if len(g.values) > 0 {
		b.WriteString("# HELP commsched_value Last numeric value reported by a value-carrying event.\n")
		b.WriteString("# TYPE commsched_value gauge\n")
		forSortedKeys(g.values, func(name string, v float64) {
			fmt.Fprintf(&b, "commsched_value{name=%q} %s\n", name, formatFloat(v))
		})
	}

	if len(g.hists) > 0 {
		b.WriteString("# HELP commsched_hist Latest flushed fixed-bucket histogram, by instrumentation point.\n")
		b.WriteString("# TYPE commsched_hist histogram\n")
		forSortedKeys(g.hists, func(name string, h *histSnapshot) {
			cum := int64(0)
			for i, c := range h.counts {
				cum += c
				le := "+Inf"
				if i < len(h.bounds) {
					le = formatFloat(h.bounds[i])
				}
				fmt.Fprintf(&b, "commsched_hist_bucket{name=%q,le=%q} %d\n", name, le, cum)
			}
			fmt.Fprintf(&b, "commsched_hist_sum{name=%q} %s\n", name, formatFloat(h.sum))
			fmt.Fprintf(&b, "commsched_hist_count{name=%q} %d\n", name, h.count)
		})
	}

	if len(g.runstateGauges) > 0 {
		b.WriteString("# HELP commsched_runstate Durable checkpoint store counters (latest runstate.status event): units, replayed, recorded, hits, skipped_partial torn lines, merge conflicts, determinism_violations.\n")
		b.WriteString("# TYPE commsched_runstate gauge\n")
		forSortedKeys(g.runstateGauges, func(field string, v float64) {
			fmt.Fprintf(&b, "commsched_runstate{field=%q} %s\n", field, formatFloat(v))
		})
	}

	if len(g.leaseGauges) > 0 {
		b.WriteString("# HELP commsched_lease Distributed lease pool counters (latest lease.status event): acquisitions, steals, reclaims, losses, conflicts, renewals, executions, replays, speculation, and wait_ms, the slot time spent waiting on units held by siblings.\n")
		b.WriteString("# TYPE commsched_lease gauge\n")
		forSortedKeys(g.leaseGauges, func(field string, v float64) {
			fmt.Fprintf(&b, "commsched_lease{field=%q} %s\n", field, formatFloat(v))
		})
	}

	writeLatencyFamily(&b, "commsched_http_request_duration_seconds",
		"HTTP request latency by endpoint, from http.request spans.",
		"endpoint", g.httpLatency, exemplars)
	writeLatencyFamily(&b, "commsched_job_state_duration_seconds",
		"Time jobs spent in each lifecycle state, from service.latency events.",
		"state", g.stateLatency, exemplars)

	if len(g.progress) > 0 {
		b.WriteString("# HELP commsched_progress_done Items completed by a tracked long-running task.\n")
		b.WriteString("# TYPE commsched_progress_done gauge\n")
		forSortedKeys(g.progress, func(task string, st *ProgressState) {
			fmt.Fprintf(&b, "commsched_progress_done{task=%q} %d\n", task, st.Done)
		})
		b.WriteString("# HELP commsched_progress_total Items the tracked task expects in total.\n")
		b.WriteString("# TYPE commsched_progress_total gauge\n")
		forSortedKeys(g.progress, func(task string, st *ProgressState) {
			fmt.Fprintf(&b, "commsched_progress_total{task=%q} %d\n", task, st.Total)
		})
		b.WriteString("# HELP commsched_progress_ratio Completed fraction of the tracked task, in [0,1].\n")
		b.WriteString("# TYPE commsched_progress_ratio gauge\n")
		forSortedKeys(g.progress, func(task string, st *ProgressState) {
			fmt.Fprintf(&b, "commsched_progress_ratio{task=%q} %s\n", task, formatFloat(st.Ratio))
		})
		b.WriteString("# HELP commsched_progress_eta_seconds Extrapolated remaining seconds (-1 before an estimate exists).\n")
		b.WriteString("# TYPE commsched_progress_eta_seconds gauge\n")
		forSortedKeys(g.progress, func(task string, st *ProgressState) {
			fmt.Fprintf(&b, "commsched_progress_eta_seconds{task=%q} %s\n", task, formatFloat(st.ETASeconds))
		})
	}

	b.WriteString("# HELP commsched_uptime_seconds Seconds since the telemetry registry was created.\n")
	b.WriteString("# TYPE commsched_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "commsched_uptime_seconds %s\n", formatFloat(g.now().Sub(g.started).Seconds()))

	_, err := io.WriteString(w, b.String())
	return err
}

// forSortedKeys iterates a string-keyed map in sorted key order.
func forSortedKeys[V any](m map[string]V, fn func(string, V)) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, m[k])
	}
}

// forSortedKeys2 iterates a {kind,name}-keyed map sorted by name, then kind.
func forSortedKeys2[V any](m map[[2]string]V, fn func([2]string, V)) {
	keys := make([][2]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][1] != keys[j][1] {
			return keys[i][1] < keys[j][1]
		}
		return keys[i][0] < keys[j][0]
	})
	for _, k := range keys {
		fn(k, m[k])
	}
}

// formatFloat renders a float compactly and deterministically: integers
// print without a fraction, everything else with %g.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// collectNumericFields copies every numeric field of the record into
// dst, keyed by field name (status events are cumulative snapshots, so
// last-wins is the current state).
func collectNumericFields(r obs.Record, dst map[string]float64) {
	for _, f := range r.Fields {
		if _, isString := f.Value.(string); isString {
			continue
		}
		if v, ok := toFloat(f.Value); ok {
			dst[f.Key] = v
		}
	}
}

// fieldFloat extracts a numeric field by key.
func fieldFloat(r obs.Record, key string) (float64, bool) {
	for _, f := range r.Fields {
		if f.Key == key {
			return toFloat(f.Value)
		}
	}
	return 0, false
}

// fieldString extracts a string field by key.
func fieldString(r obs.Record, key string) (string, bool) {
	for _, f := range r.Fields {
		if f.Key == key {
			s, ok := f.Value.(string)
			return s, ok
		}
	}
	return "", false
}

// toFloat widens the scalar types instrumentation actually emits.
func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint:
		return float64(x), true
	case uint64:
		return float64(x), true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}
