package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// ringSize is the capacity of both of a node's rings, spans and events.
const ringSize = 4096

// NodeObs bundles one node's observability identity: a private metric
// registry, a span ring, and an event ring, optionally served over an
// HTTP endpoint. The bundle follows the *process*, not the role: a
// follower's bundle rides along when it is promoted, so its counters and
// events stay continuous across the failover — exactly what a real
// daemon's in-process instruments would do. Both daemons and every node of
// an in-process cluster carry one; the Aggregator scrapes bundles either
// over HTTP or through the wire obs_pull RPC via PullSource.
type NodeObs struct {
	// Name identifies the node in fleet output (e.g. "shard0-n0" for the
	// first leader incarnation of shard 0, "shard0-f1" for its second
	// follower).
	Name string
	// Registry receives every subsystem's metric families for this node.
	Registry *obs.Registry
	// Tracer is the node's span ring, stitched fleet-wide by TraceID.
	Tracer *obs.Tracer
	// Flight is the node's black-box event ring (Tracer.Mark): failovers,
	// redirects, denials and shutdowns, kept apart from the span ring so
	// a busy renewal path cannot evict them.
	Flight *obs.Tracer

	ep   *obs.HTTPServer
	addr string // last bound endpoint address; survives Close so dead nodes stay addressable
}

// NewNodeObs builds a bundle with a fresh registry and two rings of
// ringSize entries, and registers the rings' drop counters:
//
//	obs_trace_dropped_spans_total  spans evicted from the span ring
//	flight_dropped_events_total    events evicted from the event ring
func NewNodeObs(name string) *NodeObs {
	o := &NodeObs{
		Name:     name,
		Registry: obs.NewRegistry(),
		Tracer:   obs.NewTracer(ringSize),
		Flight:   obs.NewTracer(ringSize),
	}
	o.Tracer.ExposeMetrics(o.Registry)
	o.Registry.CounterFunc("flight_dropped_events_total", "Flight-recorder events evicted by ring wrap.", nil,
		func() float64 { return float64(o.Flight.Dropped()) })
	return o
}

// Serve starts the bundle's HTTP exposition endpoint on addr (obs.Handler
// over the bundle, plus /events from its event ring). opts carries what
// callers differ on: the daemon's readiness gate, /audit handler, and
// -pprof. Idempotent.
func (o *NodeObs) Serve(addr string, opts obs.HandlerOptions) error {
	if o == nil || o.ep != nil {
		return nil
	}
	opts.Events = o.Flight
	ep, err := obs.Serve(addr, obs.Handler(o.Registry, o.Tracer, opts))
	if err != nil {
		return err
	}
	o.ep = ep
	o.addr = ep.Addr()
	return nil
}

// Addr is the bundle's HTTP endpoint address ("" until Serve). It keeps
// returning the last bound address after Close: an aggregator keeps a
// dead node in its target list and watches the scrapes fail — that
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

// Close shuts the HTTP endpoint down (the registry and both rings stay
// readable — a dead node's last state is still dumpable in-process).
func (o *NodeObs) Close() {
	if o == nil || o.ep == nil {
		return
	}
	_ = o.ep.Close()
	o.ep = nil
}

// PullSource adapts the bundle to the wire obs_pull RPC: the returned
// source marshals exactly the bytes the HTTP endpoint would serve, so an
// aggregator scraping over the attested channel sees the same exposition
// as one scraping plain HTTP.
func (o *NodeObs) PullSource() wire.ObsSource {
	return func(traceFilter string) wire.ObsPullResponse {
		var resp wire.ObsPullResponse
		resp.Metrics, _ = json.Marshal(o.Registry.Export())
		resp.Trace, _ = json.Marshal(o.Tracer.Dump(traceFilter))
		resp.Events, _ = json.Marshal(o.Flight.Dump(""))
		return resp
	}
}

// PersistEvents writes the event ring's dump as the snapshot of a store
// directory at path — one CRC-framed image, fsynced and renamed into
// place — so a graceful shutdown leaves a durable black box next to the
// WAL. A later PersistEvents to the same path replaces the dump.
func (o *NodeObs) PersistEvents(path string) error {
	img, _ := json.Marshal(o.Flight.Dump(""))
	// SyncOff: nothing is ever appended to this store's WAL; the snapshot
	// write carries its own fsync.
	st, _, err := store.Open(store.Options{Dir: path, Mode: store.SyncOff})
	if err != nil {
		return fmt.Errorf("fleet: opening event dump %s: %w", path, err)
	}
	if err := st.Snapshot(img); err != nil {
		_ = st.Close()
		return fmt.Errorf("fleet: writing event dump %s: %w", path, err)
	}
	return st.Close()
}

// ReadEvents loads a PersistEvents directory back into its dump.
func ReadEvents(path string) (obs.TraceDump, error) {
	var d obs.TraceDump
	rec, err := store.Recover(path)
	if err != nil {
		return d, fmt.Errorf("fleet: reading event dump %s: %w", path, err)
	}
	if rec.Snapshot == nil {
		return d, fmt.Errorf("fleet: no event dump at %s", path)
	}
	if err := json.Unmarshal(rec.Snapshot, &d); err != nil {
		return d, fmt.Errorf("fleet: decoding event dump %s: %w", path, err)
	}
	return d, nil
}

// DumpOnSIGQUIT prints the event ring to stderr as a timeline on every
// SIGQUIT, without stopping the process, until the returned stop is
// called; stop returns once the dumping goroutine has exited.
func (o *NodeObs) DumpOnSIGQUIT() (stop func()) {
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range quit {
			_, _ = io.WriteString(os.Stderr, Stitch("", map[string]obs.TraceDump{o.Name: o.Flight.Dump("")}).Render())
		}
	}()
	return func() {
		signal.Stop(quit)
		close(quit)
		<-done
	}
}
