package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// HandlerOptions configures the optional endpoints of Handler beyond the
// always-present /metrics, /healthz, /readyz, and /trace.
type HandlerOptions struct {
	// Ready gates /readyz: nil means "ready as soon as serving", otherwise
	// /readyz answers 503 until Ready returns true. /healthz stays a pure
	// liveness probe (200 once the listener is up) either way.
	Ready func() bool
	// Audit, when non-nil, is mounted at /audit (the audit.Log handler).
	Audit http.Handler
	// Events, when non-nil, is mounted at /events: its ring's dump,
	// served like /trace (a node's marked events, NodeObs.Flight).
	Events *Tracer
	// PProf mounts net/http/pprof under /debug/pprof/.
	PProf bool
}

// Handler returns an http.Handler serving a node's observability
// endpoints:
//
//	/metrics          MetricsHandler over reg.Export: Prometheus text, or
//	                  ?format=export for the full-fidelity form the fleet
//	                  aggregator merges
//	/healthz          200 "ok" liveness probe
//	/readyz           200 "ready" / 503 "not ready" readiness probe
//	/trace            TraceDump JSON of the tracer's ring buffer (newest
//	                  last, with a truncated marker); ?trace=<hex TraceID>
//	                  filters to one trace
//	/events           the same dump of opts.Events, when set
//
// plus the other optional endpoints of opts. tr may be nil, in which case
// /trace serves an empty dump.
func Handler(reg *Registry, tr *Tracer, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(reg.Export))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if opts.Ready != nil && !opts.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "not ready")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.Handle("/trace", dumpHandler(tr))
	if opts.Audit != nil {
		mux.Handle("/audit", opts.Audit)
	}
	if opts.Events != nil {
		mux.Handle("/events", dumpHandler(opts.Events))
	}
	if opts.PProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// dumpHandler serves tr's TraceDump (?trace=<hex TraceID> filters it) as
// compact JSON: the bytes json.Marshal gives, which is what the wire
// obs_pull RPC carries, so both transports serve one exposition.
func dumpHandler(tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		b, _ := json.Marshal(tr.Dump(req.URL.Query().Get("trace")))
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	})
}

// MetricsHandler serves the families fams returns at request time:
// Prometheus text by default, export JSON with ?format=export. A node
// serves its registry's Export through it and the fleet aggregator its
// merged view, so both expositions are one rendering of []ExportFamily.
func MetricsHandler(fams func() []ExportFamily) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "export" {
			w.Header().Set("Content-Type", "application/json")
			_ = WriteExport(w, fams())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteFamiliesPrometheus(w, fams())
	})
}

// HTTPServer is a running HTTP endpoint (see Serve).
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
}

// Serve listens on addr and serves h in a background goroutine. Use Addr
// for the bound address (useful with ":0") and Close to shut down.
func Serve(addr string, h http.Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &HTTPServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *HTTPServer) Close() error { return s.srv.Close() }
