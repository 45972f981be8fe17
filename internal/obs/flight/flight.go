// Package flight is the always-on black-box flight recorder: a fixed-size,
// allocation-bounded ring of structured operational events (failovers,
// epoch bumps, redirects, handshake failures, WAL compactions, denials,
// shutdowns) that survives to be read *after* something went wrong.
//
// Metrics answer "how much"; traces answer "where did this request go";
// the flight recorder answers "what did the process do around the time it
// died". It is cheap enough to leave on everywhere: one Emit is a mutex,
// a copy into a pre-allocated slot, and no heap allocation on the hot
// path beyond the caller's attribute strings.
//
// The ring is dumpable over HTTP (/events via HTTPHandler), on SIGQUIT
// (DumpText), and persisted as a store snapshot on graceful shutdown
// (Persist/ReadDump) so post-mortems survive the process.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// maxAttrs bounds the per-event attribute count so an Event is a fixed-size
// value and the ring's memory is fully determined by its capacity.
const maxAttrs = 4

// DefaultCapacity is the ring size daemons use when not configured.
const DefaultCapacity = 4096

// KV is one event attribute.
type KV struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Event is one flight-recorder entry. Seq is a per-recorder monotonic
// sequence number: two events with equal timestamps still have a total
// order, which is what lets a merged fleet timeline stay honest about
// ordering within one node.
type Event struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Kind  string    `json:"kind"`
	Node  string    `json:"node,omitempty"` // stamped by mergers, not by Emit
	attrs [maxAttrs]KV
	nattr int
}

// Attrs returns the event's attributes in emission order.
func (e Event) Attrs() []KV {
	return append([]KV(nil), e.attrs[:e.nattr]...)
}

// Attr returns the value of the named attribute ("" when absent).
func (e Event) Attr(key string) string {
	for _, kv := range e.attrs[:e.nattr] {
		if kv.K == key {
			return kv.V
		}
	}
	return ""
}

// eventJSON is the wire form of an Event (attrs must be exported).
type eventJSON struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Kind  string    `json:"kind"`
	Node  string    `json:"node,omitempty"`
	Attrs []KV      `json:"attrs,omitempty"`
}

// MarshalJSON renders the event with its attributes.
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{Seq: e.Seq, Time: e.Time, Kind: e.Kind, Node: e.Node}
	if e.nattr > 0 {
		j.Attrs = e.attrs[:e.nattr]
	}
	return json.Marshal(j)
}

// UnmarshalJSON parses the MarshalJSON form, dropping attributes past the
// fixed capacity.
func (e *Event) UnmarshalJSON(data []byte) error {
	var j eventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*e = Event{Seq: j.Seq, Time: j.Time, Kind: j.Kind, Node: j.Node}
	for _, kv := range j.Attrs {
		if e.nattr == maxAttrs {
			break
		}
		e.attrs[e.nattr] = kv
		e.nattr++
	}
	return nil
}

// String renders the event as one human-readable line.
func (e Event) String() string {
	var b []byte
	b = e.Time.UTC().AppendFormat(b, "2006-01-02T15:04:05.000Z")
	b = append(b, ' ')
	if e.Node != "" {
		b = append(b, '[')
		b = append(b, e.Node...)
		b = append(b, ']', ' ')
	}
	b = append(b, e.Kind...)
	for _, kv := range e.attrs[:e.nattr] {
		b = append(b, ' ')
		b = append(b, kv.K...)
		b = append(b, '=')
		b = append(b, kv.V...)
	}
	return string(b)
}

// Recorder is the fixed-size event ring. All methods are safe on a nil
// receiver (no-ops), so un-instrumented components carry nil recorders for
// free, and safe for concurrent use otherwise.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	full    bool
	seq     uint64
	dropped int64 // events evicted by ring wrap
}

// NewRecorder returns a recorder holding the last capacity events
// (minimum 64).
func NewRecorder(capacity int) *Recorder {
	if capacity < 64 {
		capacity = 64
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Emit records one event. Attributes past the per-event capacity (4) are
// dropped. Safe on a nil receiver.
func (r *Recorder) Emit(kind string, kvs ...KV) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.full {
		r.dropped++
	}
	ev := &r.buf[r.next]
	r.seq++
	*ev = Event{Seq: r.seq, Time: time.Now(), Kind: kind}
	for _, kv := range kvs {
		if ev.nattr == maxAttrs {
			break
		}
		ev.attrs[ev.nattr] = kv
		ev.nattr++
	}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Events returns the buffered events, oldest first. Safe on a nil receiver.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len returns how many events are buffered.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Dropped returns how many events the ring has evicted (0 on nil).
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// ExposeMetrics registers the recorder's self-metrics:
//
//	flight_events_total          events emitted since start
//	flight_dropped_events_total  events evicted by ring wrap
func (r *Recorder) ExposeMetrics(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.CounterFunc("flight_events_total", "Flight-recorder events emitted.", nil, func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(r.seq)
	})
	reg.CounterFunc("flight_dropped_events_total", "Flight-recorder events evicted by ring wrap.", nil,
		func() float64 { return float64(r.Dropped()) })
}

// Dump is the /events response and persisted-dump shape.
type Dump struct {
	Truncated bool    `json:"truncated"`
	Dropped   int64   `json:"dropped"`
	Events    []Event `json:"events"`
}

// Dump captures the ring's current contents.
func (r *Recorder) Dump() Dump {
	events := r.Events()
	if events == nil {
		events = []Event{}
	}
	d := r.Dropped()
	return Dump{Truncated: d > 0, Dropped: d, Events: events}
}

// WriteJSON renders the dump as indented JSON.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Dump())
}

// DumpText writes the ring as human-readable lines (the SIGQUIT dump).
func (r *Recorder) DumpText(w io.Writer) {
	events := r.Events()
	fmt.Fprintf(w, "flight recorder: %d events (%d dropped)\n", len(events), r.Dropped())
	for _, ev := range events {
		fmt.Fprintln(w, ev.String())
	}
}

// HTTPHandler serves the dump as JSON; mount it at /events via
// obs.HandlerOptions.Events.
func (r *Recorder) HTTPHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}

// Persist writes the ring's Dump as the snapshot of a store directory at
// path — one CRC-framed image, fsynced and renamed into place — so a
// graceful shutdown leaves a durable black box next to the WAL. A later
// Persist to the same path replaces the dump. Safe on a nil receiver
// (no-op).
func (r *Recorder) Persist(path string) error {
	if r == nil {
		return nil
	}
	img, err := json.Marshal(r.Dump())
	if err != nil {
		return fmt.Errorf("flight: encoding dump: %w", err)
	}
	// SyncOff: nothing is ever appended to this store's WAL; the snapshot
	// write carries its own fsync.
	st, _, err := store.Open(store.Options{Dir: path, Mode: store.SyncOff})
	if err != nil {
		return fmt.Errorf("flight: opening dump %s: %w", path, err)
	}
	if err := st.Snapshot(img); err != nil {
		_ = st.Close()
		return fmt.Errorf("flight: writing dump %s: %w", path, err)
	}
	return st.Close()
}

// ReadDump loads a Persist directory back into events (oldest first).
func ReadDump(path string) ([]Event, error) {
	rec, err := store.Recover(path)
	if err != nil {
		return nil, fmt.Errorf("flight: reading dump %s: %w", path, err)
	}
	if rec.Snapshot == nil {
		return nil, fmt.Errorf("flight: no dump at %s", path)
	}
	var d Dump
	if err := json.Unmarshal(rec.Snapshot, &d); err != nil {
		return nil, fmt.Errorf("flight: decoding dump %s: %w", path, err)
	}
	return d.Events, nil
}

// ParseDump parses an HTTPHandler/WriteJSON document.
func ParseDump(r io.Reader) (Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return Dump{}, fmt.Errorf("flight: parsing dump: %w", err)
	}
	return d, nil
}

// Merge combines per-node dumps into one fleet timeline ordered by time
// (sequence number breaking ties within a node), stamping each event with
// its node name.
func Merge(nodes map[string]Dump) []Event {
	var out []Event
	for name, d := range nodes {
		for _, ev := range d.Events {
			ev.Node = name
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
