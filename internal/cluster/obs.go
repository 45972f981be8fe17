package cluster

import (
	"encoding/json"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/store"
	"repro/internal/wire"
)

// NodeObs bundles one node's observability identity: a private metric
// registry, trace ring, and flight recorder, optionally served over a
// loopback HTTP endpoint. The bundle follows the *process*, not the role:
// a follower's bundle rides along when it is promoted, so its counters
// and flight events stay continuous across the failover — exactly what a
// real daemon's in-process instruments would do. The fleet aggregator
// (internal/obs/fleet) scrapes bundles either over HTTP or through the
// wire obs_pull RPC via PullSource.
type NodeObs struct {
	// Name identifies the node in fleet output (e.g. "shard0-n0" for the
	// first leader incarnation of shard 0, "shard0-f1" for its second
	// follower).
	Name string
	// Registry receives every subsystem's metric families for this node.
	Registry *obs.Registry
	// Tracer is the node's span ring, stitched fleet-wide by TraceID.
	Tracer *obs.Tracer
	// Flight is the node's black-box event ring.
	Flight *flight.Recorder

	ep   *obs.HTTPServer
	addr string // last bound endpoint address; survives Close so dead nodes stay addressable
}

// NewNodeObs builds a bundle with a fresh registry, a tracer of
// traceBuffer spans (<=0: the obs default), and a flight recorder. The
// tracer's and recorder's own meta-metrics (dropped spans, event counts)
// are registered immediately.
func NewNodeObs(name string, traceBuffer int) *NodeObs {
	if traceBuffer <= 0 {
		traceBuffer = 4096
	}
	o := &NodeObs{
		Name:     name,
		Registry: obs.NewRegistry(),
		Tracer:   obs.NewTracer(traceBuffer),
		Flight:   flight.NewRecorder(flight.DefaultCapacity),
	}
	o.Tracer.ExposeMetrics(o.Registry)
	o.Flight.ExposeMetrics(o.Registry)
	return o
}

// Serve starts the bundle's HTTP exposition endpoint on addr (/metrics,
// /healthz, /readyz, /trace, and /events from the bundle's recorder).
// opts carries what callers differ on: the daemon's readiness gate,
// /audit handler, and -pprof. Idempotent.
func (o *NodeObs) Serve(addr string, opts obs.HandlerOptions) error {
	if o == nil || o.ep != nil {
		return nil
	}
	opts.Events = o.Flight.HTTPHandler()
	ep, err := obs.StartHTTPOpts(addr, o.Registry, o.Tracer, opts)
	if err != nil {
		return err
	}
	o.ep = ep
	o.addr = ep.Addr()
	return nil
}

// Addr is the bundle's HTTP endpoint address ("" until Serve). It keeps
// returning the last bound address after Close: a fleet aggregator keeps
// a dead node in its target list and watches the scrapes fail — that
// refused connection IS the failover signal.
func (o *NodeObs) Addr() string {
	if o == nil {
		return ""
	}
	return o.addr
}

// URL is the bundle's HTTP base URL ("" until Serve).
func (o *NodeObs) URL() string {
	if addr := o.Addr(); addr != "" {
		return "http://" + addr
	}
	return ""
}

// Close shuts the HTTP endpoint down (the registry, tracer, and recorder
// stay readable — a dead node's last state is still dumpable in-process).
func (o *NodeObs) Close() {
	if o == nil || o.ep == nil {
		return
	}
	_ = o.ep.Close()
	o.ep = nil
}

// PullSource adapts the bundle to the wire obs_pull RPC: the returned
// source marshals exactly the bytes the HTTP endpoint would serve, so a
// fleet aggregator scraping over the attested channel sees the same
// exposition as one scraping plain HTTP.
func (o *NodeObs) PullSource() wire.ObsSource {
	return func(traceFilter string) wire.ObsPullResponse {
		var resp wire.ObsPullResponse
		resp.Metrics, _ = json.Marshal(o.Registry.Export())
		resp.Trace, _ = json.Marshal(o.Tracer.Dump(traceFilter))
		resp.Events, _ = json.Marshal(o.Flight.Dump())
		return resp
	}
}

// StoreMetrics registers the store metric family with the bundle's
// registry and returns the handle for store.Options.Metrics. Nil-safe:
// an unobserved node opens its store uninstrumented.
func (o *NodeObs) StoreMetrics() *store.Metrics {
	if o == nil {
		return nil
	}
	return store.ExposeMetrics(o.Registry)
}

// flightRec returns the bundle's recorder, nil when unobserved (a nil
// *flight.Recorder swallows Emit calls for free).
func (o *NodeObs) flightRec() *flight.Recorder {
	if o == nil {
		return nil
	}
	return o.Flight
}

// EmitProbeTimeout records the flight event that opens every failover
// timeline: the leader went silent past the detection threshold. Both
// Cluster.FailOver (where the "probe" is the harness deciding to kill)
// and the sl-remote daemon's real liveness probe loop report through
// this one helper, keeping the event kind's emission site unique.
func EmitProbeTimeout(rec *flight.Recorder, shard int, leader string, silentFor time.Duration) {
	rec.Emit("failover.probe_timeout",
		flight.KV{K: "shard", V: strconv.Itoa(shard)},
		flight.KV{K: "leader", V: leader},
		flight.KV{K: "silent_for", V: silentFor.String()})
}
