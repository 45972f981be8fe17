package fleet

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Span is one node's span placed in a fleet-wide trace tree.
type Span struct {
	// Node names the node whose tracer recorded the span.
	Node string `json:"node"`
	obs.Event
	// Children are spans whose parent resolved to this span, sorted by
	// start time.
	Children []*Span `json:"children,omitempty"`
	// Orphan marks a span whose parent ID resolved to no span on any
	// node — the parent ran on a node that died, was never scraped, or
	// whose tracer ring already evicted it.
	Orphan bool `json:"orphan,omitempty"`
}

// Trace is a stitched cross-node trace: every span any node recorded
// for one TraceID, joined into trees by parent links that may cross
// node boundaries (a client's RPC span on node A parents the handler
// span on node B).
type Trace struct {
	// Trace is the hex 128-bit trace ID.
	Trace string `json:"trace"`
	// Nodes lists the nodes that contributed at least one span.
	Nodes []string `json:"nodes"`
	// Spans is the total span count.
	Spans int `json:"spans"`
	// Truncated is set when any contributing tracer reported dropped
	// spans: the tree may be missing interior nodes.
	Truncated bool `json:"truncated"`
	// Roots are spans with no parent (Parent == 0), sorted by start.
	Roots []*Span `json:"roots"`
	// Orphans are spans whose parent could not be found on any node;
	// each is the root of its own recovered subtree. A failover trace
	// typically strands the dead leader's children here.
	Orphans []*Span `json:"orphans,omitempty"`
}

type nodeSpanKey struct {
	node string
	span uint64
}

// Stitch joins per-node trace dumps into one fleet-wide trace. Roots are
// ordered by start time, ties by node name and then by ring order, so
// Stitch("", …) over event-ring dumps is the fleet's event timeline.
// Span IDs are only unique per tracer, so spans are keyed by (node, span ID):
// a parent reference first resolves on the child's own node, then
// cross-node — preferring a unique ID match, breaking ties by time
// containment (the parent's interval must cover the child's start).
// Spans whose parent resolves nowhere are kept as orphans rather than
// dropped: a dead node's missing spans should be visible, not silent.
// When traceID is non-empty, spans of other traces are ignored.
func Stitch(traceID string, nodes map[string]obs.TraceDump) *Trace {
	t := &Trace{Trace: traceID}

	names := make([]string, 0, len(nodes))
	for name := range nodes {
		names = append(names, name)
	}
	sort.Strings(names)

	var all []*Span
	byNodeSpan := make(map[nodeSpanKey]*Span)
	byID := make(map[uint64][]*Span)
	for _, node := range names {
		dump := nodes[node]
		contributed := false
		for _, ev := range dump.Events {
			if traceID != "" && ev.Trace != traceID {
				continue
			}
			s := &Span{Node: node, Event: ev}
			all = append(all, s)
			byNodeSpan[nodeSpanKey{node, ev.Span}] = s
			byID[ev.Span] = append(byID[ev.Span], s)
			contributed = true
		}
		if contributed {
			t.Nodes = append(t.Nodes, node)
			if dump.Truncated {
				t.Truncated = true
			}
		}
	}
	t.Spans = len(all)

	for _, s := range all {
		if s.Parent == 0 {
			t.Roots = append(t.Roots, s)
			continue
		}
		p := resolveParent(s, byNodeSpan, byID)
		if p == nil {
			s.Orphan = true
			t.Orphans = append(t.Orphans, s)
			continue
		}
		p.Children = append(p.Children, s)
	}

	byStart := func(spans []*Span) {
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	}
	byStart(t.Roots)
	byStart(t.Orphans)
	for _, s := range all {
		byStart(s.Children)
	}
	return t
}

// resolveParent finds s's parent span: same-node first (span IDs are
// per-tracer sequences, so a local match is authoritative), then
// cross-node by ID — unique match wins, ambiguity falls back to the
// candidate whose interval contains the child's start.
func resolveParent(s *Span, byNodeSpan map[nodeSpanKey]*Span, byID map[uint64][]*Span) *Span {
	if p, ok := byNodeSpan[nodeSpanKey{s.Node, s.Parent}]; ok && p != s {
		return p
	}
	var candidates []*Span
	for _, p := range byID[s.Parent] {
		if p != s && p.Node != s.Node {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 1 {
		return candidates[0]
	}
	var contained []*Span
	for _, p := range candidates {
		if !s.Start.Before(p.Start) && !s.Start.After(p.Start.Add(p.Duration)) {
			contained = append(contained, p)
		}
	}
	if len(contained) == 1 {
		return contained[0]
	}
	return nil
}

// Render draws the stitched trace as an indented timeline: offsets are
// relative to the earliest span, one line per span with its node, name,
// duration, error, and attributes, orphaned subtrees flagged at the
// bottom.
func (t *Trace) Render() string {
	var b strings.Builder
	title := "trace " + t.Trace
	if t.Trace == "" {
		title = "events"
	}
	fmt.Fprintf(&b, "%s: %d spans across %d nodes", title, t.Spans, len(t.Nodes))
	if t.Truncated {
		b.WriteString(" (TRUNCATED: some tracer rings dropped spans)")
	}
	b.WriteByte('\n')
	t0 := t.earliest()
	for _, s := range t.Roots {
		renderSpan(&b, s, t0, 1)
	}
	if len(t.Orphans) > 0 {
		b.WriteString("  orphaned subtrees (parent span missing — dead or unscraped node):\n")
		for _, s := range t.Orphans {
			renderSpan(&b, s, t0, 2)
		}
	}
	return b.String()
}

func (t *Trace) earliest() time.Time {
	var t0 time.Time
	walk := func(spans []*Span) {
		for _, s := range spans {
			if t0.IsZero() || s.Start.Before(t0) {
				t0 = s.Start
			}
		}
	}
	walk(t.Roots)
	walk(t.Orphans)
	return t0
}

func renderSpan(b *strings.Builder, s *Span, t0 time.Time, depth int) {
	fmt.Fprintf(b, "%10s %s[%s] %s (%s)",
		"+"+s.Start.Sub(t0).Round(time.Microsecond).String(),
		strings.Repeat("  ", depth), s.Node, s.Name,
		s.Duration.Round(time.Microsecond))
	if s.Err != "" {
		fmt.Fprintf(b, " err=%q", s.Err)
	}
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, " %s=%s", k, s.Attrs[k])
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		renderSpan(b, c, t0, depth+1)
	}
}
