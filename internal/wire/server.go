package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/slremote"
	"repro/internal/store"
)

// Server exposes an slremote.Server over TCP. Each connection is read by
// its own goroutine, and every envelope is dispatched concurrently — one
// goroutine per in-flight envelope, replies serialized onto the connection
// with the request's ID echoed (whatever it was, zero included) so a
// pipelining client can match them. A peer that sends one request at a
// time still sees its replies in order, because it waits for each.
type Server struct {
	remote *slremote.Server
	logf   func(format string, args ...any)
	rc     *ratls.Config

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*connState
	closed   bool
	draining bool // Shutdown in progress: finish in-flight envelopes, accept no new ones
	wg       sync.WaitGroup

	panics   atomic.Int64 // recovered handler panics (always counted)
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	drained  atomic.Int64 // connections that shut down after finishing in-flight work
	aborted  atomic.Int64 // connections force-closed at the Shutdown deadline
	metrics  atomic.Pointer[serverMetrics]
	flight   atomic.Pointer[flight.Recorder]

	// preDispatch, when set, runs before each dispatch (tests inject
	// handler panics through it).
	preDispatch func(Envelope)

	// Fixed at construction (see NewServer).
	gate       ShardGate
	replSource ReplSource
	obsSource  ObsSource
}

// ShardGate decides license ownership for a sharded deployment: it returns
// the shard's current leader address and directory epoch, and whether THIS
// server is that leader (owned). A nil gate means the server owns
// everything (the single-instance deployment).
type ShardGate func(licenseID string) (leader string, epoch uint64, owned bool)

// ReplSource is the WAL tail a server exposes to its follower; a
// *store.Store satisfies it.
type ReplSource interface {
	TailSince(gen uint64, offset int64, maxBytes int) (store.TailBatch, error)
}

// DefaultReplBatchBytes caps one replication batch's raw record bytes when
// the puller does not say: comfortably under MaxMessageSize even after
// JSON/base64 expansion.
const DefaultReplBatchBytes = 4 << 20

// ObsSource builds the server's observability snapshot for one TypeObsPull
// request: the caller wires a closure over its registry, tracer, and flight
// recorder.
type ObsSource func(traceFilter string) ObsPullResponse

// SetFlightRecorder wires the black-box flight recorder; the server emits
// routing and drain events into it. A nil recorder (the default) is free.
func (s *Server) SetFlightRecorder(rec *flight.Recorder) {
	s.flight.Store(rec)
}

// NewServer wraps a license server for network serving. logf may be nil
// (silent). rc selects the channel every accepted connection must speak:
// an attested ratls config for production, ratls.Insecure() for
// plaintext paths. The rest is fixed for the server's lifetime, and nil
// turns each off: gate is consulted before every license-scoped request,
// and requests for hash ranges this server does not own are answered with
// TypeNotLeader (nil: the server owns every license); repl serves
// TypeReplPull from the server's WAL; obsSrc serves TypeObsPull
// (attested-channel scraping).
func NewServer(remote *slremote.Server, logf func(string, ...any), rc *ratls.Config, gate ShardGate, repl ReplSource, obsSrc ObsSource) (*Server, error) {
	if remote == nil {
		return nil, errors.New("wire: nil SL-Remote")
	}
	if rc == nil {
		return nil, ErrNilChannelConfig
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		remote: remote, logf: logf, rc: rc, conns: make(map[net.Conn]*connState),
		gate: gate, replSource: repl, obsSource: obsSrc,
	}, nil
}

// connState tracks what Shutdown needs to know about one connection: how
// many envelopes are in flight (pipelined requests dispatch concurrently),
// and whether the connection was already counted toward the
// drained/aborted totals.
type connState struct {
	busy    int
	counted bool
}

// Serve accepts connections until the listener is closed (by Close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("wire: server closed")
	}
	s.listener = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = &connState{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, closes all connections immediately (in-flight
// envelopes are cut off), and waits for handlers. Prefer Shutdown for
// graceful termination.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	if s.listener != nil {
		_ = s.listener.Close()
	}
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Shutdown drains the server: it stops accepting, lets every in-flight
// envelope finish and be answered, then closes the connections. Idle
// connections close immediately. If ctx expires first, the stragglers are
// force-closed and ctx's error is returned. Each connection is counted
// exactly once as drained (finished cleanly) or aborted (cut off at the
// deadline) — see wire_server_shutdown_{drained,aborted}_total.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.draining = true
	s.flight.Load().Emit("wire.drain",
		flight.KV{K: "open_conns", V: strconv.Itoa(len(s.conns))})
	if s.listener != nil {
		_ = s.listener.Close()
	}
	for conn, cs := range s.conns {
		if cs.busy == 0 {
			// Nothing in flight: the blocked ReadMessage fails with
			// net.ErrClosed and the handler exits cleanly.
			s.countLocked(cs, false)
			_ = conn.Close()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force-close the stragglers and return without waiting for their
		// handlers (net/http.Shutdown semantics): a handler wedged in
		// application code would otherwise block shutdown forever.
		s.mu.Lock()
		for conn, cs := range s.conns {
			s.countLocked(cs, true)
			_ = conn.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// countLocked tallies a connection's shutdown outcome exactly once.
func (s *Server) countLocked(cs *connState, abortedAtDeadline bool) {
	if cs.counted {
		return
	}
	cs.counted = true
	if abortedAtDeadline {
		s.aborted.Add(1)
	} else {
		s.drained.Add(1)
	}
}

// beginEnvelope counts an envelope in flight on the connection; it
// refuses new work once a drain started (the envelope read raced
// Shutdown's idle sweep).
func (s *Server) beginEnvelope(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.conns[conn]
	if !ok || s.draining {
		return false
	}
	cs.busy++
	return true
}

// endEnvelope marks one envelope done and reports whether the connection
// should now close because a drain is in progress and nothing else is in
// flight.
func (s *Server) endEnvelope(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.conns[conn]
	if !ok {
		return true
	}
	cs.busy--
	if s.draining && cs.busy == 0 {
		s.countLocked(cs, false)
		return true
	}
	return false
}

// handle speaks the channel handshake and then the envelope protocol on
// one connection. The raw conn stays the key for the shutdown
// bookkeeping (Shutdown and Close close raw conns, which unblocks any
// read or handshake on the wrapped one); all I/O goes through the
// channel conn wc.
func (s *Server) handle(conn net.Conn) {
	if m := s.metrics.Load(); m != nil {
		m.conns.Add(1)
		defer m.conns.Add(-1)
	}
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	wc, err := s.rc.Server(conn)
	if err != nil {
		// Handshake failures are counted on the ratls config
		// (ratls_handshake_failures_total); the client retries with its
		// bounded dial backoff.
		s.logf("wire: handshake with %s: %v", conn.RemoteAddr(), err)
		return
	}
	fw := newFrameWriter(wc, &s.bytesOut, 0)
	// Buffered reads: ReadMessage costs two Reads per frame (header, body);
	// over a pipelined connection many frames arrive back-to-back, so a
	// read buffer turns 2N syscalls into ~N/batch.
	br := bufio.NewReaderSize(countReader{wc, &s.bytesIn}, 32<<10)
	for {
		env, err := ReadMessage(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("wire: connection %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if !s.beginEnvelope(conn) {
			return
		}
		// Dispatch concurrently and go straight back to reading. The reply
		// carries the request's correlation ID, so ordering across in-flight
		// envelopes is the client's problem to demux.
		s.wg.Add(1)
		go func(env Envelope) {
			defer s.wg.Done()
			herr := s.handleEnvelope(wc, fw, env)
			stop := s.endEnvelope(conn)
			if herr != nil {
				s.logf("wire: reply to %s: %v", conn.RemoteAddr(), herr)
			}
			if herr != nil || stop {
				// Closing the raw conn unblocks the read loop, which
				// owns the connection teardown.
				_ = conn.Close()
			}
		}(env)
	}
}

// handleEnvelope dispatches one request with panic isolation: a handler
// panic is counted, logged, and answered with an error envelope instead of
// killing the handler goroutine silently. The returned error is a
// transport failure (the connection is then dropped).
func (s *Server) handleEnvelope(conn net.Conn, fw *frameWriter, env Envelope) (err error) {
	m := s.metrics.Load()
	typ := typeOf(env.Type)
	var span *obs.Span
	if m != nil && m.tracer != nil {
		span = m.tracer.StartLinked(typ.span, extractSpanContext(env))
		span.Annotate("remote", conn.RemoteAddr().String())
	}
	start := time.Now()
	// done finishes the handler span and records the RPC metrics exactly
	// once: the normal path and the panic path both call it, and a panic
	// raised after the normal dispatch already completed (e.g. while
	// writing the reply) must not end the span twice.
	finished := false
	done := func(handlerErr error) {
		if finished {
			return
		}
		finished = true
		if m != nil {
			rm := m.byType[typ.idx]
			rm.rpcs.Inc()
			rm.latency.Observe(time.Since(start).Seconds())
		}
		span.End(handlerErr)
	}
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.logf("wire: panic handling %q from %s: %v", env.Type, conn.RemoteAddr(), r)
			done(fmt.Errorf("panic: %v", r))
			err = fw.write(TypeError, env.ID,
				ErrorResponse{Message: fmt.Sprintf("internal error handling %q", env.Type)}, nil)
		}
	}()
	if s.preDispatch != nil {
		s.preDispatch(env)
	}
	err = s.dispatch(conn, fw, env, typ, span)
	done(err)
	return err
}

// extractSpanContext recovers the caller's span context from an envelope's
// trace field. A missing or malformed field yields the zero context (the
// handler span then starts a fresh trace).
func extractSpanContext(env Envelope) obs.SpanContext {
	if env.Trace == nil {
		return obs.SpanContext{}
	}
	id, err := obs.ParseTraceID(env.Trace.TraceID)
	if err != nil {
		return obs.SpanContext{}
	}
	return obs.SpanContext{Trace: id, Span: env.Trace.SpanID}
}

func (s *Server) dispatch(conn net.Conn, fw *frameWriter, env Envelope, typ rpcType, span *obs.Span) error {
	// reply frames one response, serialized against concurrent handlers on
	// the same connection and carrying the request's correlation ID.
	reply := func(msgType string, payload any) error {
		return fw.write(msgType, env.ID, payload, nil)
	}
	fail := func(err error) error {
		if m := s.metrics.Load(); m != nil {
			m.byType[typ.idx].errors.Inc()
		}
		return reply(TypeError, ErrorResponse{Message: err.Error()})
	}
	// redirect answers a license-scoped request with the owning shard's
	// leader when this server's gate disowns the license. A not-leader
	// reply is routing, not failure: it is not counted as an RPC error.
	redirect := func(license string) (bool, error) {
		if s.gate == nil {
			return false, nil
		}
		leader, epoch, owned := s.gate(license)
		if owned {
			return false, nil
		}
		span.Annotate("redirect", leader)
		s.flight.Load().Emit("wire.redirect",
			flight.KV{K: "license", V: license},
			flight.KV{K: "leader", V: leader},
			flight.KV{K: "epoch", V: strconv.FormatUint(epoch, 10)})
		return true, reply(TypeNotLeader, NotLeaderResponse{License: license, Leader: leader, Epoch: epoch})
	}
	switch env.Type {
	case TypeInit:
		var req InitRequest
		if err := DecodePayload(env, &req); err != nil {
			return fail(err)
		}
		child := span.Child("slremote.init")
		child.Annotate("slid", req.SLID)
		res, err := s.remote.InitClient(req.SLID, req.Quote, nil)
		child.End(err)
		if err != nil {
			return fail(err)
		}
		resp := InitResponse{SLID: res.SLID, HasOBK: res.HasOBK}
		if res.HasOBK {
			// The OBK leaves the server only through the attested (or
			// explicitly insecure) channel; SealForChannel enforces that
			// at runtime.
			sealed, err := ratls.SealForChannel(res.OBK, conn)
			if err != nil {
				return fail(err)
			}
			resp.OBK = sealed
		}
		return reply(TypeInit, resp)

	case TypeRenew:
		var req RenewRequest
		if err := DecodePayload(env, &req); err != nil {
			return fail(err)
		}
		if hit, werr := redirect(req.License); hit {
			return werr
		}
		child := span.Child("slremote.renew")
		child.Annotate("slid", req.SLID)
		child.Annotate("license", req.License)
		grant, err := s.remote.RenewLease(req.SLID, req.License)
		if err != nil {
			child.End(err)
			return fail(err)
		}
		if child != nil {
			child.Annotate("units", strconv.FormatInt(grant.Units, 10))
		}
		child.End(nil)
		return reply(TypeRenew, RenewResponse{
			Units:      grant.Units,
			Kind:       uint8(grant.GCL.Kind),
			Counter:    grant.GCL.Counter,
			IntervalNS: int64(grant.GCL.Interval),
		})

	case TypeEscrow:
		var req EscrowRequest
		if err := DecodePayload(env, &req); err != nil {
			return fail(err)
		}
		key, err := seccrypto.KeyFromBytes(req.Key)
		if err != nil {
			return fail(err)
		}
		child := span.Child("slremote.escrow")
		child.Annotate("slid", req.SLID)
		if err := s.remote.EscrowRootKey(req.SLID, key); err != nil {
			child.End(err)
			return fail(err)
		}
		child.End(nil)
		return reply(TypeOK, nil)

	case TypeRegisterLicense:
		var req RegisterLicenseRequest
		if err := DecodePayload(env, &req); err != nil {
			return fail(err)
		}
		if hit, werr := redirect(req.ID); hit {
			return werr
		}
		if err := s.remote.RegisterLicense(req.ID, lease.Kind(req.Kind), req.TotalGCL); err != nil {
			return fail(err)
		}
		return reply(TypeOK, nil)

	case TypeReportCrash:
		var req ReportCrashRequest
		if err := DecodePayload(env, &req); err != nil {
			return fail(err)
		}
		if err := s.remote.ReportCrash(req.SLID); err != nil {
			return fail(err)
		}
		return reply(TypeOK, nil)

	case TypeSetProfile:
		var req SetProfileRequest
		if err := DecodePayload(env, &req); err != nil {
			return fail(err)
		}
		if err := s.remote.SetClientProfile(req.SLID, req.Health, req.Reliability, req.Weight); err != nil {
			return fail(err)
		}
		return reply(TypeOK, nil)

	case TypeConsume:
		var req ConsumeRequest
		if err := DecodePayload(env, &req); err != nil {
			return fail(err)
		}
		if hit, werr := redirect(req.License); hit {
			return werr
		}
		if err := s.remote.ConsumeReport(req.SLID, req.License, req.Units); err != nil {
			return fail(err)
		}
		return reply(TypeOK, nil)

	case TypeLicenseInfo:
		var req LicenseInfoRequest
		if err := DecodePayload(env, &req); err != nil {
			return fail(err)
		}
		if hit, werr := redirect(req.ID); hit {
			return werr
		}
		lic, err := s.remote.License(req.ID)
		if err != nil {
			return fail(err)
		}
		return reply(TypeLicenseInfo, LicenseInfoResponse{
			ID:        lic.ID,
			Kind:      uint8(lic.Kind),
			TotalGCL:  lic.TotalGCL,
			Remaining: lic.Remaining,
			Revoked:   lic.Revoked,
			Lost:      lic.Lost,
			Consumed:  lic.Consumed,
		})

	case TypeReplPull:
		if s.replSource == nil {
			return fail(errors.New("replication not enabled on this server"))
		}
		var req ReplPullRequest
		if err := DecodePayload(env, &req); err != nil {
			return fail(err)
		}
		maxBytes := req.MaxBytes
		if maxBytes <= 0 || maxBytes > DefaultReplBatchBytes {
			maxBytes = DefaultReplBatchBytes
		}
		child := span.Child("store.tail")
		b, err := s.replSource.TailSince(req.Gen, req.Offset, maxBytes)
		if child != nil {
			child.Annotate("records", strconv.Itoa(len(b.Records)))
		}
		child.End(err)
		if err != nil {
			return fail(err)
		}
		return reply(TypeReplBatch, ReplBatchResponse{
			Gen:        b.Gen,
			Rebase:     b.Rebase,
			Snapshot:   b.Snapshot,
			Records:    b.Records,
			NextOffset: b.NextOffset,
			Tip:        b.Tip,
		})

	case TypeObsPull:
		if s.obsSource == nil {
			return fail(errors.New("observability pull not enabled on this server"))
		}
		var req ObsPullRequest
		if err := DecodePayload(env, &req); err != nil {
			return fail(err)
		}
		return reply(TypeObsPull, s.obsSource(req.Trace))

	default:
		return fail(fmt.Errorf("unknown message type %q", env.Type))
	}
}
