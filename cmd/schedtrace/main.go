// Command schedtrace reconstructs causal traces from this module's own
// telemetry and pretty-prints them as span trees with critical-path
// timing — the offline counterpart of the daemon's GET /trace/{id}.
//
// It reads two sources, separately or together:
//
//   - obs JSONL files (the -metrics flag of every CLI, or the daemon's
//     -obs sink): every record carrying a trace ID becomes a tree node —
//     spans nest under their parent span, events attach to the span that
//     emitted them;
//   - a daemon state directory (-state): the journaled job records are
//     synthesized into per-job nodes (state, queue wait, attempts) that
//     hang under their admission span when the span is present in a
//     JSONL file, and stand alone when it is not.
//
// Because trace identity survives SIGKILL (jobs journal their trace;
// resumable CLI runs derive theirs from the run identity), the tree
// printed after a crash-and-resume is ONE tree, with the pre-kill and
// post-resume work stitched under the same trace ID.
//
//	schedtrace state/obs.jsonl                 # all traces in the file
//	schedtrace -trace 0af7…319c a.jsonl b.jsonl
//	schedtrace -state ./state                  # job trees from the journal
//	schedtrace -list -state ./state            # trace IDs only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"commsched/internal/obs"
	"commsched/internal/service"
)

func main() {
	var (
		traceID = flag.String("trace", "", "show only this trace ID (32 hex digits)")
		state   = flag.String("state", "", "daemon state directory: synthesize job nodes from the jobs journal")
		list    = flag.Bool("list", false, "list trace IDs and sizes instead of printing trees")
	)
	flag.Parse()
	if *state == "" && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "schedtrace: need at least one obs JSONL file or -state directory")
		flag.Usage()
		os.Exit(2)
	}
	b := newBuilder()
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedtrace: %v\n", err)
			os.Exit(1)
		}
		err = b.addObs(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedtrace: reading %s: %v\n", path, err)
			os.Exit(1)
		}
	}
	if *state != "" {
		jobs, err := service.LoadJobs(*state)
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedtrace: %v\n", err)
			os.Exit(1)
		}
		b.addJobs(jobs)
	}
	trees := b.build()
	if *traceID != "" {
		var keep []*traceTree
		for _, t := range trees {
			if t.id == *traceID {
				keep = append(keep, t)
			}
		}
		if len(keep) == 0 {
			fmt.Fprintf(os.Stderr, "schedtrace: trace %s not found (%d trace(s) in input)\n", *traceID, len(trees))
			os.Exit(1)
		}
		trees = keep
	}
	if len(trees) == 0 {
		fmt.Fprintln(os.Stderr, "schedtrace: no traced records in input")
		os.Exit(1)
	}
	for i, t := range trees {
		if *list {
			fmt.Printf("%s  spans=%d events=%d jobs=%d\n", t.id, t.spans, t.events, t.jobs)
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		renderTree(os.Stdout, t)
	}
}

// node is one vertex of a reconstructed trace tree: a span, an attached
// point event, or a synthesized job record.
type node struct {
	kind     string // "span", "event", "wide", "job"
	name     string
	span     string // own span ID ("" for events)
	parent   string // parent span ID ("" for roots)
	start    time.Time
	dur      time.Duration
	attrs    map[string]any
	children []*node
	crit     bool
}

// end is the node's own finish time (start for point events).
func (n *node) end() time.Time { return n.start.Add(n.dur) }

// subtreeEnd is the latest finish time anywhere in the subtree — the
// quantity the critical path follows.
func (n *node) subtreeEnd() time.Time {
	e := n.end()
	for _, c := range n.children {
		if ce := c.subtreeEnd(); ce.After(e) {
			e = ce
		}
	}
	return e
}

// traceTree is one fully assembled trace.
type traceTree struct {
	id           string
	roots        []*node
	spans        int
	events       int
	jobs         int
	start        time.Time
	criticalPath []string
	critical     time.Duration
}

type builder struct {
	nodes map[string][]*node // trace ID -> flat node list
}

func newBuilder() *builder { return &builder{nodes: map[string][]*node{}} }

// addObs ingests one obs JSONL stream: every record with a "trace" key
// becomes a node; everything else (untraced legacy records, progress
// noise) is skipped. Torn trailing lines are tolerated per the module's
// crash-safety contract.
func (b *builder) addObs(r io.Reader) error {
	_, err := obs.ScanJSONLines(r, func(line []byte) error {
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			return nil // not a record; ignore
		}
		trace, _ := obj["trace"].(string)
		if trace == "" {
			return nil
		}
		n := &node{attrs: map[string]any{}}
		n.kind, _ = obj["kind"].(string)
		n.name, _ = obj["name"].(string)
		n.span, _ = obj["span"].(string)
		n.parent, _ = obj["parent"].(string)
		if ts, ok := obj["ts"].(string); ok {
			n.start, _ = time.Parse(time.RFC3339Nano, ts)
		}
		if ms, ok := obj["dur_ms"].(float64); ok {
			n.dur = time.Duration(ms * float64(time.Millisecond))
		}
		for k, v := range obj {
			switch k {
			case "ts", "kind", "name", "dur_ms", "trace", "span", "parent":
			default:
				n.attrs[k] = v
			}
		}
		// A point event's own span is the span that emitted it; attach
		// there by treating that span as the event's parent.
		if n.kind != "span" {
			n.parent = n.span
			n.span = ""
		}
		b.nodes[trace] = append(b.nodes[trace], n)
		return nil
	})
	return err
}

// addJobs synthesizes one node per journaled job that carries a trace.
// The node's parent is the job's admission span, so it nests under the
// http.request span when a JSONL file supplied it and floats to the root
// otherwise.
func (b *builder) addJobs(jobs []service.Job) {
	for _, j := range jobs {
		if j.Trace == "" {
			continue
		}
		n := &node{
			kind:   "job",
			name:   "job " + j.ID,
			parent: j.Span,
			start:  j.SubmittedAt,
			attrs: map[string]any{
				"kind":     string(j.Spec.Kind),
				"state":    string(j.State),
				"attempts": j.Attempts,
			},
		}
		if j.QueueWaitMs > 0 {
			n.attrs["queue_wait_ms"] = j.QueueWaitMs
		}
		if j.Error != "" {
			n.attrs["err"] = j.Error
		}
		if !j.FinishedAt.IsZero() {
			n.dur = j.FinishedAt.Sub(j.SubmittedAt)
		}
		b.nodes[j.Trace] = append(b.nodes[j.Trace], n)
	}
}

// build assembles the flat node lists into trees: spans index by span
// ID, children attach under their parent (or float to the root when the
// parent span never made it into the input — a crash can lose the final
// buffered second of trace), siblings sort by start time, and the
// critical path — the chain of spans ending at the subtree that finishes
// last — is marked. Traces come back sorted by earliest start.
func (b *builder) build() []*traceTree {
	var trees []*traceTree
	for id, nodes := range b.nodes {
		t := &traceTree{id: id}
		byID := map[string]*node{}
		for _, n := range nodes {
			if n.kind == "span" && n.span != "" {
				byID[n.span] = n
			}
		}
		for _, n := range nodes {
			switch n.kind {
			case "span":
				t.spans++
			case "job":
				t.jobs++
			default:
				t.events++
			}
			if p, ok := byID[n.parent]; ok && n.parent != "" && p != n {
				p.children = append(p.children, n)
			} else {
				t.roots = append(t.roots, n)
			}
		}
		sortNodes(t.roots)
		for _, n := range nodes {
			sortNodes(n.children)
		}
		if len(t.roots) > 0 {
			t.start = t.roots[0].start
			// The critical path starts at the root whose subtree ends last.
			root := t.roots[0]
			for _, r := range t.roots[1:] {
				if r.subtreeEnd().After(root.subtreeEnd()) {
					root = r
				}
			}
			markCritical(root, t)
			t.critical = root.subtreeEnd().Sub(root.start)
		}
		trees = append(trees, t)
	}
	sort.Slice(trees, func(a, b int) bool {
		if !trees[a].start.Equal(trees[b].start) {
			return trees[a].start.Before(trees[b].start)
		}
		return trees[a].id < trees[b].id
	})
	return trees
}

func sortNodes(ns []*node) {
	sort.SliceStable(ns, func(a, b int) bool {
		if !ns[a].start.Equal(ns[b].start) {
			return ns[a].start.Before(ns[b].start)
		}
		return ns[a].name < ns[b].name
	})
}

// markCritical walks from the given root into the timed child (span or
// job — point events carry no duration) whose subtree finishes last,
// marking the chain. A parent span always outlasts its children, so the
// walk descends unconditionally: the marked leaf is the work that
// determined the trace's end-to-end time.
func markCritical(n *node, t *traceTree) {
	n.crit = true
	t.criticalPath = append(t.criticalPath, n.name)
	var next *node
	for _, c := range n.children {
		if c.kind != "span" && c.kind != "job" {
			continue
		}
		if next == nil || c.subtreeEnd().After(next.subtreeEnd()) {
			next = c
		}
	}
	if next != nil {
		markCritical(next, t)
	}
}

// renderTree pretty-prints one trace: a header, the indented span tree
// (critical-path nodes marked with '*'), and the critical-path summary.
func renderTree(w io.Writer, t *traceTree) {
	fmt.Fprintf(w, "trace %s — %d span(s), %d event(s)", t.id, t.spans, t.events)
	if t.jobs > 0 {
		fmt.Fprintf(w, ", %d job(s)", t.jobs)
	}
	fmt.Fprintf(w, ", %s end-to-end\n", fmtDur(t.critical))
	for i, r := range t.roots {
		renderNode(w, r, "", i == len(t.roots)-1)
	}
	if len(t.criticalPath) > 1 {
		fmt.Fprintf(w, "critical path: %s  (%s)\n", strings.Join(t.criticalPath, " → "), fmtDur(t.critical))
	}
}

func renderNode(w io.Writer, n *node, prefix string, last bool) {
	branch, childPrefix := "├─ ", prefix+"│  "
	if last {
		branch, childPrefix = "└─ ", prefix+"   "
	}
	line := prefix + branch + n.name
	if n.dur > 0 {
		line += " " + fmtDur(n.dur)
	}
	if n.crit {
		line += " *"
	}
	if attrs := fmtAttrs(n.attrs); attrs != "" {
		line += "  " + attrs
	}
	fmt.Fprintln(w, line)
	for i, c := range n.children {
		renderNode(w, c, childPrefix, i == len(n.children)-1)
	}
}

// fmtAttrs renders a node's attributes deterministically (sorted keys),
// capped so wide events do not wrap the tree off the terminal.
func fmtAttrs(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const maxKeys = 8
	parts := make([]string, 0, len(keys))
	for i, k := range keys {
		if i == maxKeys {
			parts = append(parts, fmt.Sprintf("+%d more", len(keys)-maxKeys))
			break
		}
		parts = append(parts, fmt.Sprintf("%s=%v", k, attrs[k]))
	}
	return "{" + strings.Join(parts, " ") + "}"
}

func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "0ms"
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
