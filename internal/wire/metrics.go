package wire

import (
	"io"
	"sync/atomic"

	"repro/internal/obs"
)

// rpcType is one row of the request-type table: its index into the
// resolved metric handles, the RPC span name (built once here, never per
// RPC), and the reply type a successful request gets.
type rpcType struct {
	idx   int
	span  string
	reply string
}

// rpcLabels lists every request type, in metric-handle order. Each is its
// own metric label; any other type collapses into "unknown", so a hostile
// peer cannot grow label cardinality.
var rpcLabels = [...]struct{ req, reply string }{
	{TypeInit, TypeInit}, {TypeRenew, TypeRenew}, {TypeEscrow, TypeOK},
	{TypeLicenseInfo, TypeLicenseInfo},
	{TypeReplPull, TypeReplBatch}, {TypeObsPull, TypeObsPull}, {"unknown", ""},
}

// rpcTypes is the request-type table both ends consult per RPC, keyed by
// message type; read-only after init.
var rpcTypes = func() map[string]rpcType {
	m := make(map[string]rpcType, len(rpcLabels))
	for i, l := range rpcLabels {
		m[l.req] = rpcType{idx: i, span: "rpc." + l.req, reply: l.reply}
	}
	return m
}()

// typeOf returns msgType's row, the "unknown" row for anything else.
func typeOf(msgType string) rpcType {
	if t, ok := rpcTypes[msgType]; ok {
		return t
	}
	return rpcTypes["unknown"]
}

// rpcTypeMetrics is one message type's pre-resolved counter/histogram
// handles. Resolving them once at ExposeMetrics time keeps the hot path
// free of per-RPC label-map lookups.
type rpcTypeMetrics struct {
	rpcs    *obs.Counter
	errors  *obs.Counter
	latency *obs.Histogram
}

// resolveTypeMetrics pre-resolves every row's handles from the three
// vectors, indexed by rpcType.idx.
func resolveTypeMetrics(rpcs, errs *obs.CounterVec, latency *obs.HistogramVec) []rpcTypeMetrics {
	byType := make([]rpcTypeMetrics, len(rpcLabels))
	for i, l := range rpcLabels {
		byType[i] = rpcTypeMetrics{
			rpcs:    rpcs.With(l.req),
			errors:  errs.With(l.req),
			latency: latency.With(l.req),
		}
	}
	return byType
}

// clientMetrics holds the client's active metrics; nil until ExposeMetrics
// runs. tracer may be nil (spans become no-ops).
type clientMetrics struct {
	byType []rpcTypeMetrics // by rpcType.idx; read-only after ExposeMetrics
	tracer *obs.Tracer
}

// ExposeMetrics registers the client's RPC metrics with an obs registry
// and, when tr is non-nil, records one trace span per RPC round trip. The
// span's context rides in the envelope so the server's handler span joins
// the same trace.
//
// Metric inventory: wire_client_rpcs_total{type}, wire_client_rpc_errors_total{type},
// wire_client_rpc_latency_seconds{type} (histogram), wire_client_bytes_sent_total,
// wire_client_bytes_received_total, wire_client_dial_retries_total,
// wire_client_redirects_total, wire_client_pool_misses_total,
// wire_client_wrong_id_total.
func (c *Client) ExposeMetrics(reg *obs.Registry, tr *obs.Tracer) {
	if reg == nil {
		return
	}
	reg.CounterFunc("wire_client_bytes_sent_total", "Frame bytes written to the server.", nil,
		func() float64 { return float64(c.bytesOut.Load()) })
	reg.CounterFunc("wire_client_bytes_received_total", "Frame bytes read from the server.", nil,
		func() float64 { return float64(c.bytesIn.Load()) })
	reg.CounterFunc("wire_client_dial_retries_total", "Connect attempts retried after a transient failure.", nil,
		func() float64 { return float64(c.dialRetries.Load()) })
	reg.CounterFunc("wire_client_redirects_total", "Connections re-pointed after a not-leader redirect.", nil,
		func() float64 { return float64(c.redirects.Load()) })
	reg.CounterFunc("wire_client_pool_misses_total", "Connections a not-leader redirect had to dial.", nil,
		func() float64 { return float64(c.poolMisses.Load()) })
	reg.CounterFunc("wire_client_wrong_id_total", "Responses rejected for carrying no or an unknown correlation ID.", nil,
		func() float64 { return float64(c.wrongID.Load()) })
	c.metrics.Store(&clientMetrics{
		byType: resolveTypeMetrics(
			reg.CounterVec("wire_client_rpcs_total", "RPC round trips, by message type.", "type"),
			reg.CounterVec("wire_client_rpc_errors_total", "Failed RPC round trips, by message type.", "type"),
			reg.HistogramVec("wire_client_rpc_latency_seconds", "RPC round-trip latency, by message type.", nil, "type"),
		),
		tracer: tr,
	})
}

// serverMetrics holds the server's active metrics; nil until ExposeMetrics
// runs. tracer may be nil (spans become no-ops).
type serverMetrics struct {
	byType []rpcTypeMetrics // by rpcType.idx; read-only after ExposeMetrics
	conns  *obs.Gauge       // wire_server_open_connections
	tracer *obs.Tracer
}

// ExposeMetrics registers the server's RPC metrics with an obs registry
// and, when tr is non-nil, records one trace span per handled RPC.
//
// Metric inventory: wire_server_rpcs_total{type}, wire_server_rpc_errors_total{type},
// wire_server_rpc_latency_seconds{type} (histogram), wire_server_open_connections,
// wire_server_handler_panics_total, wire_server_bytes_received_total,
// wire_server_bytes_sent_total, wire_server_shutdown_drained_total,
// wire_server_shutdown_aborted_total.
func (s *Server) ExposeMetrics(reg *obs.Registry, tr *obs.Tracer) {
	if reg == nil {
		return
	}
	reg.CounterFunc("wire_server_handler_panics_total", "Handler panics recovered per envelope.", nil,
		func() float64 { return float64(s.panics.Load()) })
	reg.CounterFunc("wire_server_bytes_received_total", "Frame bytes read from clients.", nil,
		func() float64 { return float64(s.bytesIn.Load()) })
	reg.CounterFunc("wire_server_bytes_sent_total", "Frame bytes written to clients.", nil,
		func() float64 { return float64(s.bytesOut.Load()) })
	reg.CounterFunc("wire_server_shutdown_drained_total", "Connections that shut down after finishing in-flight work.", nil,
		func() float64 { return float64(s.drained.Load()) })
	reg.CounterFunc("wire_server_shutdown_aborted_total", "Connections force-closed at the Shutdown deadline.", nil,
		func() float64 { return float64(s.aborted.Load()) })
	s.metrics.Store(&serverMetrics{
		byType: resolveTypeMetrics(
			reg.CounterVec("wire_server_rpcs_total", "RPCs handled, by message type.", "type"),
			reg.CounterVec("wire_server_rpc_errors_total", "RPCs answered with an error envelope, by message type.", "type"),
			reg.HistogramVec("wire_server_rpc_latency_seconds", "Server-side RPC handling latency, by message type.", nil, "type"),
		),
		conns:  reg.Gauge("wire_server_open_connections", "Currently open client connections."),
		tracer: tr,
	})
}

// countWriter and countReader tally frame bytes into an atomic as they
// pass through.
type countWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (cw countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	return n, err
}

type countReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}
