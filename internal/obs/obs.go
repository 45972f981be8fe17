// Package obs is the repo's unified observability layer: a stdlib-only
// metrics registry (counters, gauges, histograms, labeled families), a
// ring-buffer request tracer, and an embeddable HTTP endpoint serving
// Prometheus-text and export-JSON expositions of one Registry.Export walk.
//
// The paper's entire evaluation is counter-driven — SGX transitions, EPC
// faults, renewals, attestations (Tables 1/5/6, Figures 8/9) — and this
// package makes the same quantities visible on *running* daemons instead
// of only through offline harness drivers. Hot paths record into lock-free
// atomics; scrape-time work (sorting, formatting) happens only when an
// exposition is requested.
//
// All metric types are nil-receiver safe: un-instrumented components carry
// nil metric pointers and the record calls are no-ops, so instrumentation
// is strictly opt-in and costs nothing when off.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family for exposition.
type Kind uint8

// Family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored; counters only go up). Safe on a nil
// receiver.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta. Safe on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// funcMetric is a scrape-time metric backed by a callback: existing atomic
// counters (sgx.Stats, sllocal.Stats, ...) register one instead of double
// counting on their hot paths.
type funcMetric struct {
	fn func() float64
}

// Histogram observes float values into fixed buckets. Buckets are
// cumulative at exposition time but stored per-bucket so Observe is one
// atomic add (plus sum/count).
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	sum    Gauge
	count  atomic.Int64
}

// DefLatencyBuckets covers sub-millisecond local operations through the
// paper's multi-second remote attestations (seconds).
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefSizeBuckets covers grant sizes and byte counts (powers of four).
var DefSizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts by
// linear interpolation inside the covering bucket, the same scheme
// Prometheus' histogram_quantile uses. Values landing in the +Inf
// overflow bucket clamp to the highest finite bound, and an empty
// histogram reports 0. Safe on a nil receiver.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	return BucketQuantile(h.bounds, h.bucketCounts(), q)
}

// family is one named metric with a label schema and one child per label
// combination ("" key for the unlabeled singleton).
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histogram families only
	owner      *Registry // for the label-cardinality cap; nil exempts

	mu       sync.RWMutex
	children map[string]any // *Counter | *Gauge | *Histogram | funcMetric
	keys     []string       // insertion-ordered child keys
}

// child returns the metric for the label key, creating it with mk if absent.
// New label combinations past the registry's per-family cap collapse into
// the OverflowLabel child instead of growing the family without bound.
func (f *family) child(key string, mk func() any) any {
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	if m, ok := f.children[key]; ok {
		f.mu.Unlock()
		return m
	}
	if f.overCapLocked(key) {
		m = f.newChildLocked(f.overflowKey(), mk)
		f.mu.Unlock()
		// Count the drop outside f.mu: the dropped-values vec lives in a
		// different (exempt) family, so no lock cycle is possible.
		f.owner.dropped.With(f.name).Inc()
		return m
	}
	m = f.newChildLocked(key, mk)
	f.mu.Unlock()
	return m
}

func (f *family) newChildLocked(key string, mk func() any) any {
	if m, ok := f.children[key]; ok {
		return m
	}
	m := mk()
	f.children[key] = m
	f.keys = append(f.keys, key)
	return m
}

// overCapLocked reports whether creating a child for key would exceed the
// owning registry's per-family label cap. The unlabeled singleton, the
// overflow child itself, and the registry's own drop counter are exempt.
func (f *family) overCapLocked(key string) bool {
	if key == "" || len(f.labelNames) == 0 || f.owner == nil || f.name == droppedLabelValuesName {
		return false
	}
	limit := int(f.owner.labelLimit.Load())
	if limit <= 0 || key == f.overflowKey() {
		return false
	}
	return len(f.children) >= limit
}

// overflowKey is the child key every over-cap label combination collapses
// into: OverflowLabel in each label position.
func (f *family) overflowKey() string {
	values := make([]string, len(f.labelNames))
	for i := range values {
		values[i] = OverflowLabel
	}
	return LabelKey(values)
}

// setChild unconditionally installs a metric (func metrics re-register on
// component re-instrumentation; last registration wins). New keys honor the
// same cardinality cap as child.
func (f *family) setChild(key string, m any) {
	f.mu.Lock()
	dropped := false
	if _, ok := f.children[key]; !ok && f.overCapLocked(key) {
		key = f.overflowKey()
		dropped = true
	}
	if _, ok := f.children[key]; !ok {
		f.keys = append(f.keys, key)
	}
	f.children[key] = m
	f.mu.Unlock()
	if dropped {
		f.owner.dropped.With(f.name).Inc()
	}
}

// DefaultLabelLimit is the per-family cap on distinct label combinations a
// registry accepts before collapsing new ones into OverflowLabel. Generous
// on purpose: the cap exists to bound memory against unbounded identifier
// spaces (per-client gauges at 1M clients), not to trim healthy cardinality.
const DefaultLabelLimit = 4096

// OverflowLabel is the label value over-cap series collapse into.
const OverflowLabel = "__other__"

// droppedLabelValuesName is the registry's own drop counter; exempt from
// the cap so accounting can't recurse into itself.
const droppedLabelValuesName = "obs_dropped_label_values_total"

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. A Registry is safe for concurrent use.
type Registry struct {
	labelLimit atomic.Int64
	dropped    *CounterVec // obs_dropped_label_values_total{family}

	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{families: make(map[string]*family)}
	r.labelLimit.Store(DefaultLabelLimit)
	r.dropped = r.CounterVec(droppedLabelValuesName,
		"Label combinations collapsed into __other__ by the per-family cardinality cap.", "family")
	return r
}

// SetLabelLimit sets the per-family cap on distinct label combinations
// (DefaultLabelLimit initially). n <= 0 removes the cap. Existing children
// are never evicted; the cap only gates new combinations.
func (r *Registry) SetLabelLimit(n int) {
	r.labelLimit.Store(int64(n))
}

// familyFor returns the named family, creating it on first use. Kind and
// label names are fixed by the first registration; a later registration
// with the same schema gets the existing family, and one with a different
// schema panics — its children's label values would not line up with the
// family's label names, a programmer error best caught at start-up.
func (r *Registry) familyFor(name, help string, kind Kind, labelNames []string, buckets []float64) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if ok {
		return f.sameSchema(kind, labelNames)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		return f.sameSchema(kind, labelNames)
	}
	f = &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    buckets,
		owner:      r,
		children:   make(map[string]any),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// sameSchema returns f if a registration of kind with labelNames matches
// it, and panics naming both schemas otherwise.
func (f *family) sameSchema(kind Kind, labelNames []string) *family {
	if kind != f.kind || !slices.Equal(labelNames, f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q registered as %v{%s}, re-registered as %v{%s}",
			f.name, f.kind, strings.Join(f.labelNames, ","), kind, strings.Join(labelNames, ",")))
	}
	return f
}

// labelSep separates positional label values in a child key.
const labelSep = "\x1f"

// LabelKey joins positional label values (matching the family's label
// names) into the key a registry indexes a family's children by. The fleet
// merger keys merged children the same way.
func LabelKey(values []string) string {
	return strings.Join(values, labelSep)
}

// Counter returns the unlabeled counter of the named family.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.familyFor(name, help, KindCounter, nil, nil)
	return f.child("", func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the unlabeled gauge of the named family.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.familyFor(name, help, KindGauge, nil, nil)
	return f.child("", func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the unlabeled histogram of the named family. A nil
// buckets slice uses DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.familyFor(name, help, KindHistogram, nil, buckets)
	return f.child("", func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterFunc registers a scrape-time counter backed by fn, labeled by the
// given map. Re-registering the same name+labels replaces the callback.
func (r *Registry) CounterFunc(name, help string, labels map[string]string, fn func() float64) {
	r.registerFunc(name, help, KindCounter, labels, fn)
}

// GaugeFunc registers a scrape-time gauge backed by fn, labeled by the
// given map. Re-registering the same name+labels replaces the callback.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {
	r.registerFunc(name, help, KindGauge, labels, fn)
}

func (r *Registry) registerFunc(name, help string, kind Kind, labels map[string]string, fn func() float64) {
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	values := make([]string, len(names))
	for i, k := range names {
		values[i] = labels[k]
	}
	f := r.familyFor(name, help, kind, names, nil)
	f.setChild(LabelKey(values), funcMetric{fn: fn})
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.familyFor(name, help, KindCounter, labelNames, nil)}
}

// With returns the counter for the given label values (positional). Safe
// on a nil receiver (returns nil, whose methods are no-ops).
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(LabelKey(labelValues), func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.familyFor(name, help, KindGauge, labelNames, nil)}
}

// With returns the gauge for the given label values. Safe on a nil
// receiver.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(LabelKey(labelValues), func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family. A nil buckets slice
// uses DefLatencyBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.familyFor(name, help, KindHistogram, labelNames, buckets)}
}

// With returns the histogram for the given label values. Safe on a nil
// receiver.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(LabelKey(labelValues), func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// sortedFamilies returns families in registration order (stable output).
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.families[name])
	}
	return out
}

// Key builds the Snapshot key for a metric: `name` when labels is empty,
// otherwise `name{k="v",...}` with label names sorted.
func Key(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}
