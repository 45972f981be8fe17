package wire

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
)

// DefaultTimeout bounds the connect and each request/reply round trip for
// clients built with Dial. Without it a hung or partitioned server stalls
// SL-Local forever on a blocking read.
const DefaultTimeout = 10 * time.Second

// maxRedirectHops bounds how many not-leader redirects one logical RPC
// follows before giving up — enough to chase a failover that completes
// mid-request, small enough that a routing loop (two stale servers
// pointing at each other) fails fast instead of ping-ponging.
const maxRedirectHops = 3

// RetryPolicy shapes the dial retry schedule: seeded exponential backoff
// with full jitter. During a failover storm every disconnected client
// redials at once; the jitter spreads the reconnect herd, and the seed
// keeps harness runs reproducible.
type RetryPolicy struct {
	// Attempts is the total number of connect attempts (minimum 1).
	Attempts int
	// Base is the backoff ceiling before the first retry; each further
	// retry doubles it, capped at Max.
	Base time.Duration
	// Max caps the per-retry backoff ceiling.
	Max time.Duration
	// Seed seeds the jitter stream. Two clients with the same policy but
	// different seeds sleep differently — that is the point.
	Seed int64
}

// DefaultRetryPolicy is the production dial schedule: four attempts with
// backoff ceilings of 100ms, 200ms, 400ms.
func DefaultRetryPolicy(seed int64) RetryPolicy {
	return RetryPolicy{Attempts: 4, Base: 100 * time.Millisecond, Max: 2 * time.Second, Seed: seed}
}

func (p RetryPolicy) attempts() int {
	if p.Attempts < 1 {
		return 1
	}
	return p.Attempts
}

// backoff returns the pause before retry number retry (1-based): a
// uniformly random duration in [0, min(Max, Base·2^(retry-1))] — the
// "full jitter" schedule, which decorrelates a reconnect herd better than
// jittering around the midpoint.
func (p RetryPolicy) backoff(retry int, rng *rand.Rand) time.Duration {
	ceiling := p.Base
	if ceiling <= 0 {
		ceiling = 100 * time.Millisecond
	}
	for i := 1; i < retry; i++ {
		ceiling *= 2
		if p.Max > 0 && ceiling >= p.Max {
			ceiling = p.Max
			break
		}
	}
	if p.Max > 0 && ceiling > p.Max {
		ceiling = p.Max
	}
	return time.Duration(rng.Int63n(int64(ceiling) + 1))
}

// ErrNilChannelConfig reports a Dial or NewServer call without a channel
// config: the caller must choose attested (ratls.New) or explicitly
// plaintext (ratls.Insecure()), never get plaintext by accident.
var ErrNilChannelConfig = errors.New("wire: nil channel config (use ratls.Insecure() for explicit plaintext)")

// Client is the TCP binding of SL-Remote: it implements sllocal.RemoteAPI
// over one connection to a wire.Server, so an sllocal.Service runs against
// a real license-server daemon unchanged.
//
// The connection is pipelined: every envelope carries a correlation ID, a
// demux reader goroutine matches replies to waiters, and concurrent
// callers share the pipe instead of queueing behind a per-request lock.
// Every RPC runs through one request path, call. A not_leader reply moves
// the client to a fresh connection to the named leader; the old one is
// retired and closes once its in-flight requests drain. A connection the
// server dropped is not redialed: its RPCs fail with the reader's error,
// and reconnecting is the caller's policy.
type Client struct {
	mu      sync.Mutex
	cc      *clientConn // guardedby: mu — the connection to addr (replaced on redirect)
	addr    string      // guardedby: mu — server cc speaks to
	closed  bool        // guardedby: mu
	rc      *ratls.Config
	timeout time.Duration
	policy  RetryPolicy
	rng     *rand.Rand // jitter stream; guarded by mu after construction

	nextID      atomic.Uint64 // correlation IDs, client-global so redirects cannot collide
	bytesOut    atomic.Int64
	bytesIn     atomic.Int64
	dialRetries atomic.Int64
	redirects   atomic.Int64
	poolMisses  atomic.Int64 // connections a redirect had to dial
	wrongID     atomic.Int64 // responses bearing an unknown correlation ID, rejected
	metrics     atomic.Pointer[clientMetrics]
}

// clientConn is one pipelined connection: a frame writer shared by every
// sender, and a demux reader goroutine delivering each response to the
// waiter whose correlation ID it carries.
type clientConn struct {
	c net.Conn
	w *frameWriter

	mu      sync.Mutex
	waiters map[uint64]chan Envelope // guardedby: mu — in-flight requests by ID
	readErr error                    // guardedby: mu — set before done closes
	retired bool                     // guardedby: mu — close once the last waiter drains
	closed  bool                     // guardedby: mu
	done    chan struct{}            // closed when the reader exits

	// Shared counters owned by the parent Client.
	wrongID *atomic.Int64
	bytesIn *atomic.Int64
}

// Dial connects to a wire.Server at addr with DefaultTimeout and
// DefaultRetryPolicy seeded from the clock. rc selects the channel: an
// attested ratls config for production, ratls.Insecure() for plaintext
// paths.
func Dial(addr string, rc *ratls.Config) (*Client, error) {
	return DialPolicy(addr, DefaultTimeout, rc, DefaultRetryPolicy(time.Now().UnixNano()))
}

// DialPolicy connects to a wire.Server at addr and runs the channel
// handshake rc prescribes. timeout bounds the connect (TCP plus
// handshake) and each subsequent request/reply round trip; zero disables
// deadlines (blocking semantics). Transient connect failures (timeout,
// refused, unreachable, or a failed channel handshake) are retried on
// policy's jittered exponential backoff; harnesses seed it so reconnect
// storms replay identically.
func DialPolicy(addr string, timeout time.Duration, rc *ratls.Config, policy RetryPolicy) (*Client, error) {
	if rc == nil {
		return nil, ErrNilChannelConfig
	}
	c := &Client{
		timeout: timeout,
		rc:      rc,
		policy:  policy,
		rng:     rand.New(rand.NewSource(policy.Seed)),
	}
	cc, err := c.newConn(addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	c.cc, c.addr = cc, addr
	return c, nil
}

// dial runs the policy's connect-attempt loop: every transient failure
// costs one jittered backoff and one tick of wire_client_dial_retries_total;
// a non-transient failure (e.g. address resolution) aborts immediately.
func (c *Client) dial(addr string) (net.Conn, error) {
	var err error
	for attempt := 1; attempt <= c.policy.attempts(); attempt++ {
		if attempt > 1 {
			c.dialRetries.Add(1)
			time.Sleep(c.policy.backoff(attempt-1, c.rng))
		}
		var conn net.Conn
		conn, err = c.connect(addr)
		if err == nil {
			return conn, nil
		}
		if !transientDialErr(err) {
			return nil, err
		}
	}
	return nil, err
}

// newConn dials addr and wraps the channel connection in a pipelined
// clientConn with its reader running.
func (c *Client) newConn(addr string) (*clientConn, error) {
	conn, err := c.dial(addr)
	if err != nil {
		return nil, err
	}
	cc := &clientConn{
		c:       conn,
		w:       newFrameWriter(conn, &c.bytesOut, c.timeout),
		waiters: make(map[uint64]chan Envelope),
		done:    make(chan struct{}),
		wrongID: &c.wrongID,
		bytesIn: &c.bytesIn,
	}
	go cc.readLoop()
	return cc, nil
}

// connect performs one TCP connect plus channel handshake. On handshake
// failure ratls has already closed the raw connection.
func (c *Client) connect(addr string) (net.Conn, error) {
	raw, err := (&net.Dialer{Timeout: c.timeout}).Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return c.rc.Client(raw)
}

// transientDialErr reports whether a connect failure is worth one retry:
// timeouts, kernel-level connection errors (refused, reset, unreachable),
// and channel handshake failures (the peer may have been mid-restart or
// mid-rotation) are; address resolution failures are not.
func transientDialErr(err error) bool {
	if errors.Is(err, ratls.ErrHandshake) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var se *net.OpError
	if errors.As(err, &se) {
		var dns *net.DNSError
		return !errors.As(se.Err, &dns)
	}
	return false
}

// Close shuts the connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	cc := c.cc
	c.mu.Unlock()
	return cc.close()
}

// conn returns the current connection; it fails only after Close.
func (c *Client) conn() (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, net.ErrClosed
	}
	return c.cc, nil
}

// redirect re-points the client at addr with a fresh connection (dialed
// with the policy's backoff and counted as a pool miss). The old
// connection is retired, not cut: it finishes its in-flight requests and
// closes when they drain, so a redirect never strands a sibling RPC's
// reply. A no-op when another RPC already moved there.
func (c *Client) redirect(addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return net.ErrClosed
	}
	if addr == c.addr {
		return nil
	}
	cc, err := c.newConn(addr)
	if err != nil {
		return fmt.Errorf("wire: redirecting to %s: %w", addr, err)
	}
	c.poolMisses.Add(1)
	c.cc.retire()
	c.cc, c.addr = cc, addr
	c.redirects.Add(1)
	return nil
}

// readLoop is the demux reader: it delivers each response to the waiter
// registered under the response's correlation ID. A response carrying no
// ID or an ID with no waiter (a stale reply after a timeout, or a
// misbehaving server) is counted and dropped — never handed to an
// arbitrary waiter. On read error every pending waiter is failed.
func (cc *clientConn) readLoop() {
	// Mirror of the server's buffered reader: batches of pipelined replies
	// land in one Read instead of two syscalls per frame.
	br := bufio.NewReaderSize(countReader{cc.c, cc.bytesIn}, 32<<10)
	for {
		env, err := ReadMessage(br)
		if err != nil {
			cc.fail(err)
			return
		}
		ch, last := cc.take(env.ID)
		if ch == nil {
			cc.wrongID.Add(1)
			continue
		}
		ch <- env // buffered; never blocks
		if last {
			_ = cc.close()
			return
		}
	}
}

// fail marks the connection dead and wakes every pending waiter.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.readErr == nil {
		cc.readErr = err
		close(cc.done)
	}
	cc.waiters = nil
	cc.mu.Unlock()
	_ = cc.close()
}

// lastErr returns the reader's terminal error (nil while the connection
// is live).
func (cc *clientConn) lastErr() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.readErr
}

// register claims a waiter slot for a correlation ID. A dead connection
// answers with its reader's error.
func (cc *clientConn) register(id uint64) (chan Envelope, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.readErr != nil {
		return nil, cc.readErr
	}
	if cc.closed || cc.retired {
		return nil, net.ErrClosed
	}
	ch := make(chan Envelope, 1)
	cc.waiters[id] = ch
	return ch, nil
}

// take removes id's waiter (nil when there is none) and reports whether
// it was the last one on a retired connection, which should now close.
func (cc *clientConn) take(id uint64) (ch chan Envelope, last bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	ch = cc.waiters[id]
	delete(cc.waiters, id)
	return ch, cc.retired && len(cc.waiters) == 0
}

// unregister abandons a waiter (send failure or timeout); the conn closes
// if it was retired and this was the last one.
func (cc *clientConn) unregister(id uint64) {
	if _, last := cc.take(id); last {
		_ = cc.close()
	}
}

// retire schedules the connection to close as soon as its in-flight
// requests drain (immediately when idle).
func (cc *clientConn) retire() {
	cc.mu.Lock()
	cc.retired = true
	idle := len(cc.waiters) == 0
	cc.mu.Unlock()
	if idle {
		_ = cc.close()
	}
}

// close closes the underlying connection exactly once.
func (cc *clientConn) close() error {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return nil
	}
	cc.closed = true
	cc.mu.Unlock()
	return cc.c.Close()
}

// wait blocks until the demux reader delivers id's reply, the connection
// dies, or timeout (0: none) passes. A reply that lands in the same
// instant as either failure wins.
func (cc *clientConn) wait(id uint64, ch chan Envelope, msgType string, timeout time.Duration) (Envelope, error) {
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	var err error
	select {
	case env := <-ch:
		return env, nil
	case <-cc.done:
		err = cc.lastErr()
	case <-timeoutC:
		cc.unregister(id)
		err = fmt.Errorf("wire: %s round trip: %w", msgType, os.ErrDeadlineExceeded)
	}
	select {
	case env := <-ch:
		return env, nil
	default:
		return Envelope{}, err
	}
}

// channelPayload builds a request payload for the connection its frame
// leaves on. Escrow uses it: the root key may only be sealed for the very
// channel that carries it.
type channelPayload func(conn net.Conn) (any, error)

// call is the client's one request path. Each hop is one exchange on the
// current connection: an RPC span (a child of parent, else a root span
// when a tracer is installed) whose context rides in the envelope, a fresh
// correlation ID, the framed send, the wait for the correlated reply, and
// the per-type metrics. A not_leader reply re-points the client at the
// named leader and retries; a loop of stale servers or a leaderless shard
// surfaces as ErrNotLeader. Any other reply must be the type's expected
// reply, decoded into out (nil: the reply carries no payload).
func (c *Client) call(parent *obs.Span, msgType string, req any, out any) error {
	typ := typeOf(msgType)
	for hop := 0; ; hop++ {
		m := c.metrics.Load()
		var span *obs.Span
		if parent != nil {
			span = parent.Child(typ.span)
		} else if m != nil {
			span = m.tracer.Start(typ.span)
		}
		var tc *TraceContext
		if sc := span.Context(); !sc.Trace.IsZero() {
			tc = &TraceContext{TraceID: sc.Trace.String(), SpanID: sc.Span}
		}
		start := time.Now()
		id := c.nextID.Add(1)
		cc, err := c.conn()
		payload := req
		if build, ok := req.(channelPayload); ok && err == nil {
			payload, err = build(cc.c)
		}
		var ch chan Envelope
		if err == nil {
			ch, err = cc.register(id)
		}
		if err == nil {
			if err = cc.w.write(msgType, id, payload, tc); err != nil {
				cc.unregister(id)
			}
		}
		var env Envelope
		if err == nil {
			env, err = cc.wait(id, ch, msgType, c.timeout)
		}
		if m != nil {
			rm := m.byType[typ.idx]
			rm.rpcs.Inc()
			rm.latency.Observe(time.Since(start).Seconds())
			if err != nil {
				rm.errors.Inc()
			}
		}
		span.End(err)
		switch {
		case err != nil:
			return err
		case env.Type == typ.reply && out == nil:
			return nil
		case env.Type == typ.reply:
			return DecodePayload(env, out)
		case env.Type != TypeNotLeader:
			return RemoteErr(env)
		}
		var nl NotLeaderResponse
		if err := DecodePayload(env, &nl); err != nil {
			return err
		}
		if hop >= maxRedirectHops || nl.Leader == "" {
			return fmt.Errorf("%w: license %q (leader %q, epoch %d, %d hops)",
				ErrNotLeader, nl.License, nl.Leader, nl.Epoch, hop+1)
		}
		if err := c.redirect(nl.Leader); err != nil {
			return err
		}
	}
}

// InitClient implements sllocal.RemoteAPI over the wire. The remote
// attestation's multi-second latency is charged to the client machine
// (the server side cannot reach its clock).
func (c *Client) InitClient(slid string, quote attest.Quote, clientMachine *sgx.Machine) (slremote.InitResult, error) {
	return c.InitClientSpan(nil, slid, quote, clientMachine)
}

// InitClientSpan is InitClient with the RPC span linked under parent, so
// the whole init handshake shares the caller's TraceID (sllocal uses this
// via its traced-remote binding).
func (c *Client) InitClientSpan(parent *obs.Span, slid string, quote attest.Quote, clientMachine *sgx.Machine) (slremote.InitResult, error) {
	if clientMachine != nil {
		clientMachine.ChargeRemoteAttestation()
	}
	var resp InitResponse
	if err := c.call(parent, TypeInit, InitRequest{SLID: slid, Quote: quote}, &resp); err != nil {
		return slremote.InitResult{}, err
	}
	out := slremote.InitResult{SLID: resp.SLID, HasOBK: resp.HasOBK}
	if resp.HasOBK {
		key, err := seccrypto.KeyFromBytes(resp.OBK)
		if err != nil {
			return slremote.InitResult{}, fmt.Errorf("wire: decoding OBK: %w", err)
		}
		out.OBK = key
	}
	return out, nil
}

// RenewLease implements sllocal.RemoteAPI over the wire.
func (c *Client) RenewLease(slid, licenseID string) (slremote.Grant, error) {
	return c.RenewLeaseSpan(nil, slid, licenseID)
}

// RenewLeaseSpan is RenewLease with the RPC span linked under parent.
func (c *Client) RenewLeaseSpan(parent *obs.Span, slid, licenseID string) (slremote.Grant, error) {
	var resp RenewResponse
	if err := c.call(parent, TypeRenew, RenewRequest{SLID: slid, License: licenseID}, &resp); err != nil {
		return slremote.Grant{}, err
	}
	grant := slremote.Grant{License: licenseID, Units: resp.Units}
	grant.GCL.Kind = lease.Kind(resp.Kind)
	grant.GCL.Counter = resp.Counter
	grant.GCL.Interval = time.Duration(resp.IntervalNS)
	return grant, nil
}

// EscrowRootKey implements sllocal.RemoteAPI over the wire.
func (c *Client) EscrowRootKey(slid string, key seccrypto.Key) error {
	return c.EscrowRootKeySpan(nil, slid, key)
}

// EscrowRootKeySpan is EscrowRootKey with the RPC span linked under parent.
// SealForChannel releases the key only into an attested (or explicitly
// insecure) connection — a plain net.Conn is refused at runtime — and it
// seals for the very connection the request leaves on.
func (c *Client) EscrowRootKeySpan(parent *obs.Span, slid string, key seccrypto.Key) error {
	return c.call(parent, TypeEscrow, channelPayload(func(conn net.Conn) (any, error) {
		sealed, err := ratls.SealForChannel(key, conn)
		return EscrowRequest{SLID: slid, Key: sealed}, err
	}), nil)
}

// RegisterLicense registers a license on the remote server (admin). In a
// sharded cluster the request follows redirects to the license's owning
// shard.
func (c *Client) RegisterLicense(id string, kind uint8, totalGCL int64) error {
	return c.call(nil, TypeRegisterLicense, RegisterLicenseRequest{ID: id, Kind: kind, TotalGCL: totalGCL}, nil)
}

// ReportCrash reports a crashed SL-Local (admin/monitor).
func (c *Client) ReportCrash(slid string) error {
	return c.call(nil, TypeReportCrash, ReportCrashRequest{SLID: slid}, nil)
}

// SetProfile updates a client's Algorithm 1 inputs (admin/monitor).
func (c *Client) SetProfile(slid string, health, reliability, weight float64) error {
	return c.call(nil, TypeSetProfile, SetProfileRequest{
		SLID: slid, Health: health, Reliability: reliability, Weight: weight,
	}, nil)
}

// ConsumeReport reports spent units so the server's outstanding view (and
// the conservation ledger behind it) tracks reality.
func (c *Client) ConsumeReport(slid, licenseID string, units int64) error {
	return c.call(nil, TypeConsume, ConsumeRequest{SLID: slid, License: licenseID, Units: units}, nil)
}

// LicenseInfo fetches license state (admin), following shard redirects.
func (c *Client) LicenseInfo(id string) (LicenseInfoResponse, error) {
	var resp LicenseInfoResponse
	err := c.call(nil, TypeLicenseInfo, LicenseInfoRequest{ID: id}, &resp)
	return resp, err
}

// ReplPull fetches one replication batch: the server's durable WAL
// records after position (gen, offset). Followers call it in a loop,
// advancing their position by the returned NextOffset.
func (c *Client) ReplPull(gen uint64, offset int64, maxBytes int) (ReplBatchResponse, error) {
	var resp ReplBatchResponse
	err := c.call(nil, TypeReplPull, ReplPullRequest{Gen: gen, Offset: offset, MaxBytes: maxBytes}, &resp)
	return resp, err
}

// ObsPull fetches the server's observability snapshot (metric export,
// trace dump, flight dump) over the channel. traceFilter, when non-empty,
// narrows the trace dump to one hex TraceID.
func (c *Client) ObsPull(traceFilter string) (ObsPullResponse, error) {
	var resp ObsPullResponse
	err := c.call(nil, TypeObsPull, ObsPullRequest{Trace: traceFilter}, &resp)
	return resp, err
}

var _ sllocal.RemoteAPI = (*Client)(nil)
