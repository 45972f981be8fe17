package ratls

import "repro/internal/obs"

// ExposeMetrics registers the channel's handshake counters with an obs
// registry and, when tr is non-nil, records one trace span per handshake
// (annotated with mode and whether it resumed).
//
// Metric inventory: ratls_handshakes_total, ratls_resumed_handshakes_total,
// ratls_handshake_failures_total, ratls_quote_verifications_total,
// ratls_quote_rejections_total, ratls_ticket_rotations_total. The gap
// between handshakes and quote verifications is the attestation cost
// resumption saved.
func (c *Config) ExposeMetrics(reg *obs.Registry, tr *obs.Tracer) {
	if reg == nil {
		return
	}
	reg.CounterFunc("ratls_handshakes_total", "Completed full (quote-verified) handshakes.", nil,
		func() float64 { return float64(c.coldHandshakes.Load()) })
	reg.CounterFunc("ratls_resumed_handshakes_total", "Completed resumed handshakes (quote verification skipped).", nil,
		func() float64 { return float64(c.resumedHandshakes.Load()) })
	reg.CounterFunc("ratls_handshake_failures_total", "Handshakes that failed (TLS or attestation).", nil,
		func() float64 { return float64(c.handshakeFailures.Load()) })
	reg.CounterFunc("ratls_quote_verifications_total", "Peer quotes checked during cold handshakes.", nil,
		func() float64 { return float64(c.quoteVerifs.Load()) })
	reg.CounterFunc("ratls_quote_rejections_total", "Peer quotes rejected (binding, signature, or trust list).", nil,
		func() float64 { return float64(c.quoteRejects.Load()) })
	reg.CounterFunc("ratls_ticket_rotations_total", "Session-ticket secret rotations (each invalidates all outstanding tickets).", nil,
		func() float64 { return float64(c.ticketRotations.Load()) })
	if tr != nil {
		c.tracer.Store(tr)
	}
}

// SetFlightRecorder wires the node's event ring; the channel marks
// handshake failures into it. A nil ring (the default) is free.
func (c *Config) SetFlightRecorder(rec *obs.Tracer) {
	c.flight.Store(rec)
}
