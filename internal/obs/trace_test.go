package obs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestTracerSpans(t *testing.T) {
	tr := NewTracer(64)
	root := tr.Start("rpc.renew")
	root.Annotate("remote", "127.0.0.1:1")
	child := root.Child("policy")
	child.End(nil)
	root.End(errors.New("boom"))

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	// Child ended first, so it is the older event.
	if events[0].Name != "policy" || events[1].Name != "rpc.renew" {
		t.Fatalf("order = %q, %q", events[0].Name, events[1].Name)
	}
	if events[0].Parent != events[1].Span {
		t.Fatalf("child parent = %d, want root span %d", events[0].Parent, events[1].Span)
	}
	if events[1].Err != "boom" {
		t.Fatalf("root err = %q", events[1].Err)
	}
	if events[1].Attrs["remote"] != "127.0.0.1:1" {
		t.Fatalf("attrs = %v", events[1].Attrs)
	}
	if events[0].Span == events[1].Span || events[0].Span == 0 {
		t.Fatalf("span IDs not distinct/nonzero: %d %d", events[0].Span, events[1].Span)
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 40; i++ {
		tr.Start(fmt.Sprintf("op-%d", i)).End(nil)
	}
	events := tr.Events()
	if len(events) != 16 {
		t.Fatalf("len = %d, want ring capacity 16", len(events))
	}
	if tr.Len() != 16 {
		t.Fatalf("Len = %d, want 16", tr.Len())
	}
	// Oldest-first: the surviving events are ops 24..39.
	if events[0].Name != "op-24" || events[15].Name != "op-39" {
		t.Fatalf("window = %q..%q, want op-24..op-39", events[0].Name, events[15].Name)
	}
}

// TestTracerOverflowVisible pins the overflow contract: a wrapped ring is
// never silent — the dump carries the truncated marker and drop count, and
// the obs_trace_dropped_spans_total counter exposes the same number.
func TestTracerOverflowVisible(t *testing.T) {
	tr := NewTracer(16)
	reg := NewRegistry()
	tr.ExposeMetrics(reg)

	for i := 0; i < 20; i++ {
		tr.Start(fmt.Sprintf("op-%d", i)).End(nil)
	}
	if got := tr.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	if !tr.Truncated() {
		t.Fatal("wrapped tracer not marked truncated")
	}
	dump := tr.Dump("")
	if !dump.Truncated || dump.Dropped != 4 {
		t.Fatalf("dump = truncated %v dropped %d, want true/4", dump.Truncated, dump.Dropped)
	}
	if got := reg.Snapshot().Get("obs_trace_dropped_spans_total", nil); got != 4 {
		t.Fatalf("obs_trace_dropped_spans_total = %v, want 4", got)
	}

	// A filtered dump keeps the marker: the dropped spans might have
	// belonged to the requested trace.
	if filtered := tr.Dump("00000000000000000000000000000abc"); !filtered.Truncated {
		t.Fatal("filtered dump lost the truncation marker")
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	sp.Annotate("k", "v")
	sp.Child("y").End(nil)
	sp.End(nil)
	if tr.Events() != nil || tr.Len() != 0 || sp.ID() != 0 {
		t.Fatal("nil tracer produced state")
	}
}

// TestNilTracerMarkIsNoop: a node without an events ring passes a nil
// *Tracer to every emitter, so Mark and the reads of the ring must be inert.
func TestNilTracerMarkIsNoop(t *testing.T) {
	var tr *Tracer
	tr.Mark("nil.event", "k", "v")
	if tr.Events() != nil || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer not inert")
	}
	if d := tr.Dump(""); d.Truncated || d.Dropped != 0 || len(d.Events) != 0 {
		t.Fatalf("nil dump: %+v", d)
	}
	tr.ExposeMetrics(NewRegistry())
}

// TestTracerMark pins the instant-event shape: a mark is a root with no
// trace ID, zero duration, and a span ID from the ring's one sequence;
// its attributes come in key/value pairs.
func TestTracerMark(t *testing.T) {
	tr := NewTracer(16)
	tr.Mark("a.first", "k", "1")
	tr.Start("a.span").End(nil)
	tr.Mark("a.second", "x", "y", "z", "w", "dangling")

	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	first, second := events[0], events[2]
	if first.Name != "a.first" || second.Name != "a.second" {
		t.Fatalf("order = %q, %q", first.Name, second.Name)
	}
	if first.Trace != "" || first.Parent != 0 || first.Duration != 0 || first.Start.IsZero() {
		t.Fatalf("mark = %+v, want a zero-length root without a trace", first)
	}
	if first.Span != 1 || events[1].Span != 2 || second.Span != 3 {
		t.Fatalf("span IDs = %d, %d, %d, want one sequence 1, 2, 3", first.Span, events[1].Span, second.Span)
	}
	if first.Attrs["k"] != "1" || len(first.Attrs) != 1 {
		t.Fatalf("first attrs = %v", first.Attrs)
	}
	if second.Attrs["x"] != "y" || second.Attrs["z"] != "w" || len(second.Attrs) != 2 {
		t.Fatalf("second attrs = %v, want the two pairs and no dangling key", second.Attrs)
	}
	if a := tr.Dump("").Events[1].Attrs; a != nil {
		t.Fatalf("span without annotations has attrs %v", a)
	}
}

// TestMarkRingWrapCountsDrops: marks wrap the ring like spans, oldest
// first, and every eviction is counted.
func TestMarkRingWrapCountsDrops(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 40; i++ {
		tr.Mark("wrap.tick", "i", fmt.Sprint(i))
	}
	d := tr.Dump("")
	if !d.Truncated || d.Dropped != 24 || len(d.Events) != 16 {
		t.Fatalf("dump truncated=%v dropped=%d len=%d, want true/24/16", d.Truncated, d.Dropped, len(d.Events))
	}
	if d.Events[0].Attrs["i"] != "24" || d.Events[15].Attrs["i"] != "39" {
		t.Fatalf("window = %v..%v, want 24..39", d.Events[0].Attrs, d.Events[15].Attrs)
	}
}

// TestMarkConcurrent: marks from many goroutines are each either kept or
// counted as dropped, never lost.
func TestMarkConcurrent(t *testing.T) {
	conc := NewTracer(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				conc.Mark("conc.event")
			}
		}()
	}
	wg.Wait()
	if got := conc.Len() + int(conc.Dropped()); got != 800 {
		t.Fatalf("kept+dropped = %d, want 800", got)
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned the zero ID")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() = %q, want 32 hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil {
		t.Fatalf("ParseTraceID(%q): %v", s, err)
	}
	if back != id {
		t.Fatalf("round trip: %v != %v", back, id)
	}
	for _, bad := range []string{"", "abc", s + "00", "zz" + s[2:]} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

// TestStartLinkedJoinsRemoteTrace is the cross-process linkage contract:
// a span started from a SpanContext that arrived over the wire shares the
// originating trace ID and records the remote span as its parent, while
// its own ID still comes from the local tracer's sequence.
func TestStartLinkedJoinsRemoteTrace(t *testing.T) {
	client := NewTracer(16)
	server := NewTracer(16)

	root := client.Start("rpc.renew")
	sc := root.Context()
	if sc.Trace.IsZero() || sc.Span == 0 {
		t.Fatalf("root context = %+v, want non-zero trace and span", sc)
	}

	handler := server.StartLinked("rpc.renew", sc)
	inner := handler.Child("slremote.renew")
	inner.End(nil)
	handler.End(nil)
	root.End(nil)

	sEv := server.Events()
	cEv := client.Events()
	if len(sEv) != 2 || len(cEv) != 1 {
		t.Fatalf("events: server %d, client %d", len(sEv), len(cEv))
	}
	want := sc.Trace.String()
	if cEv[0].Trace != want || sEv[0].Trace != want || sEv[1].Trace != want {
		t.Fatalf("trace IDs diverged: client %q, server %q/%q, want %q",
			cEv[0].Trace, sEv[0].Trace, sEv[1].Trace, want)
	}
	// sEv[0] is the child (ended first), sEv[1] the handler.
	if sEv[1].Parent != sc.Span {
		t.Fatalf("handler parent = %d, want the client span %d", sEv[1].Parent, sc.Span)
	}
	if sEv[0].Parent != sEv[1].Span {
		t.Fatalf("child parent = %d, want the handler span %d", sEv[0].Parent, sEv[1].Span)
	}

	// A zero context degrades to a fresh root trace.
	fresh := server.StartLinked("rpc.renew", SpanContext{})
	if got := fresh.Context(); got.Trace.IsZero() || got.Trace == sc.Trace {
		t.Fatalf("zero-context StartLinked trace = %v", got.Trace)
	}
	fresh.End(nil)

	// Nil tracer and nil span stay inert.
	var nt *Tracer
	if nt.StartLinked("x", sc) != nil {
		t.Fatal("nil tracer StartLinked returned a span")
	}
	var ns *Span
	if got := ns.Context(); got != (SpanContext{}) {
		t.Fatalf("nil span context = %+v", got)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(128)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Start("op").End(nil)
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 128 {
		t.Fatalf("Len = %d, want full ring 128", tr.Len())
	}
	seen := make(map[uint64]bool)
	for _, ev := range tr.Events() {
		if seen[ev.Span] {
			t.Fatalf("duplicate span id %d", ev.Span)
		}
		seen[ev.Span] = true
	}
}
