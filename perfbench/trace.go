package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req; Parent is 0 for a root.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Req    string    `json:"req"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced mode: every method is a no-op costing one nil check.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID (0 when not tracing).
func (r *recorder) begin(name, req string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: time.Now()})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-timed span.
func (r *recorder) add(name, req string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

// retime moves an open or closed span to [start, end].
func (r *recorder) retime(id int, start, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Start, r.spans[id-1].End = start, end
	r.mu.Unlock()
}

// snapshot returns the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if !s.End.IsZero() {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes the spans, one JSON object per line.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (parallel calls), so the covered part is the union of their intervals,
// clipped to the parent's.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// layerProfile aggregates a trace by span name.
type layerProfile struct {
	// Self is the summed self time per span name.
	Self map[string]time.Duration
	// Durs lists every span's duration per name.
	Durs map[string][]float64
	// Root is the summed duration of root spans.
	Root time.Duration
}

func profile(spans []span) layerProfile {
	self := selfTimes(spans)
	p := layerProfile{Self: map[string]time.Duration{}, Durs: map[string][]float64{}}
	for _, s := range spans {
		p.Self[s.Name] += self[s.ID]
		p.Durs[s.Name] = append(p.Durs[s.Name], ms(s.dur()))
		if s.Parent == 0 {
			p.Root += s.dur()
		}
	}
	return p
}

// share is a span name's self time as a fraction of all root time.
func (p layerProfile) share(name string) float64 {
	if p.Root <= 0 {
		return 0
	}
	return float64(p.Self[name]) / float64(p.Root)
}

// p50 is the median duration in ms of the named spans (0 when none).
func (p layerProfile) p50(name string) float64 { return median(p.Durs[name]) }

// tailMs is the named spans' duration tail in ms, capped at p99.
func (p layerProfile) tailMs(name string) float64 { return tailOf(p.Durs[name], 99).Value }
