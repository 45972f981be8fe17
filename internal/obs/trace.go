package obs

import (
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit identifier shared by every span of one logical
// request, including spans recorded by other processes. It is what lets
// a renewal be followed across the wire: the client's RPC span and the
// server's handler span carry the same TraceID even though their span
// IDs come from independent tracers.
type TraceID [16]byte

// NewTraceID returns a random, non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

// IsZero reports whether the trace ID is the all-zero (absent) value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the trace ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 2*len(id) {
		return TraceID{}, fmt.Errorf("obs: trace ID %q: want %d hex digits", s, 2*len(id))
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("obs: trace ID %q: %w", s, err)
	}
	return id, nil
}

// SpanContext is the portable identity of a span: enough to link a span
// recorded in another process (or another tracer) back to its parent.
type SpanContext struct {
	Trace TraceID
	Span  uint64
}

// Event is one completed span in the tracer's ring buffer.
type Event struct {
	// Trace is the hex 128-bit trace ID shared across processes.
	Trace string `json:"trace,omitempty"`
	// Span is the per-request span ID (monotonic across the tracer).
	Span uint64 `json:"span"`
	// Parent is the enclosing span's ID, 0 for a root span.
	Parent uint64 `json:"parent,omitempty"`
	// Name identifies the operation (e.g. "rpc.renew").
	Name string `json:"name"`
	// Start is the span's wall-clock start time.
	Start time.Time `json:"start"`
	// Duration is how long the span ran.
	Duration time.Duration `json:"duration_ns"`
	// Err is the failure message, empty on success.
	Err string `json:"err,omitempty"`
	// Attrs carries optional key=value annotations.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Tracer records spans and instant events (Mark) into a fixed-size ring
// buffer: always on, bounded memory, newest events overwrite the oldest.
// The /trace and /events endpoints dump a node's two rings. A nil *Tracer
// is safe to use everywhere (all ops no-op).
type Tracer struct {
	seq     atomic.Uint64
	dropped atomic.Int64 // spans evicted by ring wrap before export

	mu   sync.Mutex
	buf  []Event
	next int  // ring write cursor
	full bool // buffer has wrapped
}

// NewTracer returns a tracer holding the last capacity events (minimum 16).
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Span is one in-flight operation. Create with Tracer.Start, finish with
// End. A nil *Span is safe (all ops no-op).
type Span struct {
	tr     *Tracer
	trace  TraceID
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  map[string]string
}

// Start begins a root span under a fresh TraceID. Safe on a nil receiver
// (returns nil).
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, trace: NewTraceID(), id: t.seq.Add(1), name: name, start: time.Now()}
}

// StartLinked begins a span that continues a trace started elsewhere —
// typically a remote caller whose SpanContext arrived over the wire. The
// new span keeps this tracer's local span-ID sequence but adopts the
// caller's TraceID and records the caller's span as its parent. A zero
// SpanContext degrades to Start. Safe on a nil receiver.
func (t *Tracer) StartLinked(name string, sc SpanContext) *Span {
	if t == nil {
		return nil
	}
	if sc.Trace.IsZero() {
		return t.Start(name)
	}
	return &Span{
		tr:     t,
		trace:  sc.Trace,
		id:     t.seq.Add(1),
		parent: sc.Span,
		name:   name,
		start:  time.Now(),
	}
}

// ID returns the span's request ID (0 on a nil receiver).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Context returns the span's portable identity for propagation to other
// processes. Zero on a nil receiver.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.trace, Span: s.id}
}

// Child begins a sub-span sharing this span's tracer and TraceID. Safe on
// a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	child := s.tr.Start(name)
	child.trace = s.trace
	child.parent = s.id
	return child
}

// Annotate attaches a key=value attribute. Safe on a nil receiver.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// End completes the span, recording it (with err's message, if any) into
// the tracer's ring. Safe on a nil receiver.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	ev := Event{
		Trace:    s.trace.String(),
		Span:     s.id,
		Parent:   s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: time.Since(s.start),
		Attrs:    s.attrs,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	s.tr.record(ev)
}

// Mark records an instant event: it starts now, lasts 0, carries no
// trace ID, and takes its span ID from the ring's own sequence. kv holds
// attribute key/value pairs (an unpaired trailing key is dropped). A node
// marks its operational events (failovers, redirects, denials) into a
// ring of their own, so a flood of spans cannot evict them. Safe on a nil
// receiver.
func (t *Tracer) Mark(name string, kv ...string) {
	if t == nil {
		return
	}
	ev := Event{Span: t.seq.Add(1), Name: name, Start: time.Now()}
	if len(kv) >= 2 {
		ev.Attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			ev.Attrs[kv[i]] = kv[i+1]
		}
	}
	t.record(ev)
}

func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	if t.full {
		// The slot being overwritten still holds the oldest event: that
		// span is gone before any exporter saw it.
		t.dropped.Add(1)
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Dropped returns how many spans the ring has evicted since creation (0 on
// a nil receiver). A non-zero value means Events is missing spans.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Truncated reports whether any span has been evicted, i.e. whether the
// buffer's view of past traces is partial.
func (t *Tracer) Truncated() bool { return t.Dropped() > 0 }

// ExposeMetrics registers the tracer's self-metrics with an obs registry:
//
//	obs_trace_dropped_spans_total   spans evicted by ring wrap before export
func (t *Tracer) ExposeMetrics(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.CounterFunc("obs_trace_dropped_spans_total",
		"Spans evicted from the tracer ring before export.", nil,
		func() float64 { return float64(t.Dropped()) })
}

// Events returns the buffered events, oldest first. Safe on a nil receiver
// (returns nil).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Event(nil), t.buf[:t.next]...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// TraceDump is the /trace response: the buffered (optionally filtered)
// events plus an explicit marker for whether this tracer's view is partial,
// so a fleet stitcher can report "this node's spans are truncated" instead
// of silently missing them.
type TraceDump struct {
	Truncated bool    `json:"truncated"`
	Dropped   int64   `json:"dropped"`
	Events    []Event `json:"events"`
}

// Dump captures the buffered events (oldest first), filtered to one trace
// when traceFilter is a non-empty hex TraceID. Safe on a nil receiver.
func (t *Tracer) Dump(traceFilter string) TraceDump {
	events := t.Events()
	if traceFilter != "" {
		filtered := events[:0:0]
		for _, ev := range events {
			if ev.Trace == traceFilter {
				filtered = append(filtered, ev)
			}
		}
		events = filtered
	}
	if events == nil {
		events = []Event{}
	}
	return TraceDump{Truncated: t.Truncated(), Dropped: t.Dropped(), Events: events}
}

// Len returns how many events are buffered.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.buf)
	}
	return t.next
}
