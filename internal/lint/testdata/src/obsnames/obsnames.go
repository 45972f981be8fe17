// Package obsnames is a golden fixture for the obsnames analyzer.
package obsnames

import "repro/internal/obs"

// Register exercises the naming rules at direct registration sites.
func Register(reg *obs.Registry) {
	reg.Counter("good_total", "A well-formed counter.")
	reg.Counter("BadName", "CamelCase drifts from the exposition format.") // want `metric name "BadName" does not match`
	reg.Histogram("latency", "A histogram without a unit.", nil)           // want `histogram "latency" lacks a unit suffix`
	reg.Histogram("latency_seconds", "A histogram with a unit.", nil)
}

// RegisterDup registers the same literal twice: the second site collides.
func RegisterDup(reg *obs.Registry) {
	reg.Gauge("dup_value", "First registration wins.")
	reg.Gauge("dup_value", "Second registration collides.") // want `metric "dup_value" already registered`
}

// RegisterDynamic defeats static auditing: names must be literals.
func RegisterDynamic(reg *obs.Registry, name string) {
	reg.Counter(name, "A dynamic name.") // want `metric name passed to Registry.Counter is not a string literal`
}

// RegisterWrapped uses the forwarding-closure idiom the ExposeMetrics
// implementations share: the literal is checked at the wrapper call site,
// and the forwarding registration inside the closure stays clean.
func RegisterWrapped(reg *obs.Registry) {
	counter := func(name, help string) {
		reg.Counter(name, help)
	}
	counter("wrapped_total", "A forwarded literal.")
	counter("WrappedBad", "Checked where the literal lives.") // want `metric name "WrappedBad" does not match`
}

// EmitEvents exercises the event vocabulary rules.
func EmitEvents(rec *obs.Tracer, kind string) {
	rec.Mark("subsys.good_event", "k", "v")
	rec.Mark("BadKind")    // want `flight-event kind "BadKind" does not match`
	rec.Mark(kind)         // want `flight-event kind passed to Tracer.Mark is not a string literal`
	rec.Mark("good_total") // an event kind may coincide with a metric name: separate namespaces
}

// EmitDup re-marks a kind already marked above: the vocabulary demands a
// single emission site per kind.
func EmitDup(rec *obs.Tracer) {
	rec.Mark("subsys.good_event") // want `flight-event kind "subsys.good_event" already emitted`
}

// StartSpans is the near miss: span names passed to Tracer.Start are not
// event kinds, so a dynamic name, a bad name, and a name reused from a
// mark all pass.
func StartSpans(tr *obs.Tracer, name string) {
	tr.Start(name).End(nil)
	tr.Start("BadKind").End(nil)
	tr.Start("subsys.good_event").End(nil)
}
