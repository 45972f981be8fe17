// Package wire is the network protocol between SL-Local daemons and the
// SL-Remote license server: length-prefixed JSON messages over TCP. It
// lets the same sllocal.Service run either embedded (direct binding to a
// *slremote.Server) or against a real server process, which is how the
// cmd/sl-remote and cmd/sl-local binaries deploy.
//
// The protocol carries the three SL-Local→SL-Remote operations (init,
// renew, escrow) plus administrative calls (license registration, crash
// reports, profile updates). A Client speaks it over one pipelined
// connection, and every RPC takes one request path from request frame to
// decoded reply; both ends write frames through one coalescing frame
// writer, and WriteMessage is the one framing entry point. Payload
// confidentiality/authenticity in a real deployment would ride on the
// RA-derived session key; the simulation transports structured plaintext
// and enforces trust via the attestation layer's quote verification,
// which is the part the paper's design depends on.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
)

// MaxMessageSize bounds one frame (defense against corrupt peers).
const MaxMessageSize = 16 << 20

// Message types.
const (
	TypeInit            = "init"
	TypeRenew           = "renew"
	TypeEscrow          = "escrow"
	TypeRegisterLicense = "register_license"
	TypeReportCrash     = "report_crash"
	TypeSetProfile      = "set_profile"
	TypeLicenseInfo     = "license_info"
	TypeConsume         = "consume"
	TypeError           = "error"
	TypeOK              = "ok"
	// TypeNotLeader answers a license-scoped request sent to a server that
	// does not own the license's hash range: the payload names the shard's
	// current leader so the client re-routes transparently.
	TypeNotLeader = "not_leader"
	// TypeReplPull / TypeReplBatch are the WAL replication stream: a
	// follower pulls the leader's durable records after its last applied
	// position.
	TypeReplPull  = "repl_pull"
	TypeReplBatch = "repl_batch"
	// TypeObsPull asks a server for its observability state (full-fidelity
	// metric export, trace dump, flight-recorder dump) over the attested
	// channel, so a fleet scraper needs no separate plaintext HTTP port.
	TypeObsPull = "obs_pull"
)

// TraceContext carries the caller's obs.SpanContext across the wire so
// the server's handler span joins the client's trace. TraceID is the
// 32-hex-digit obs.TraceID; SpanID is the caller's span within it.
type TraceContext struct {
	TraceID string `json:"trace_id"`
	SpanID  uint64 `json:"span_id,omitempty"`
}

// Envelope frames every message: a type tag, an optional correlation ID,
// an optional trace context, and the JSON payload.
//
// ID correlates pipelined requests with their responses: a client may have
// many envelopes in flight on one connection, and the server echoes each
// request's ID on its reply so the client's demux reader hands every
// response to the waiter that sent it. A peer that never sets IDs (0 is
// absent on the wire) gets 0 echoed back and must keep one request in
// flight at a time to tell its replies apart.
type Envelope struct {
	Type    string          `json:"type"`
	ID      uint64          `json:"id,omitempty"`
	Trace   *TraceContext   `json:"trace,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// InitRequest is the SL-Local init() handshake. The quote travels as
// attest.Quote directly — its JSON codec enforces field sizes — so the
// wire and attestation layers cannot drift apart.
type InitRequest struct {
	SLID  string       `json:"slid,omitempty"`
	Quote attest.Quote `json:"quote"`
}

// InitResponse returns the SLID and, after a graceful shutdown, the OBK.
type InitResponse struct {
	SLID   string `json:"slid"`
	OBK    []byte `json:"obk,omitempty"`
	HasOBK bool   `json:"has_obk"`
}

// RenewRequest asks for a sub-GCL.
type RenewRequest struct {
	SLID    string `json:"slid"`
	License string `json:"license"`
}

// RenewResponse carries the grant.
type RenewResponse struct {
	Units      int64 `json:"units"`
	Kind       uint8 `json:"kind"`
	Counter    int64 `json:"counter"`
	IntervalNS int64 `json:"interval_ns,omitempty"`
}

// EscrowRequest stores the lease-tree root key.
type EscrowRequest struct {
	SLID string `json:"slid"`
	Key  []byte `json:"key"`
}

// RegisterLicenseRequest registers a license (admin).
type RegisterLicenseRequest struct {
	ID       string `json:"id"`
	Kind     uint8  `json:"kind"`
	TotalGCL int64  `json:"total_gcl"`
}

// ReportCrashRequest applies the pessimistic crash policy (admin/monitor).
type ReportCrashRequest struct {
	SLID string `json:"slid"`
}

// SetProfileRequest updates a client's Algorithm 1 inputs.
type SetProfileRequest struct {
	SLID        string  `json:"slid"`
	Health      float64 `json:"health"`
	Reliability float64 `json:"reliability"`
	Weight      float64 `json:"weight"`
}

// ConsumeRequest reports units a client spent from its sub-GCL, moving
// them from the server's outstanding view to the license's consumed
// ledger.
type ConsumeRequest struct {
	SLID    string `json:"slid"`
	License string `json:"license"`
	Units   int64  `json:"units"`
}

// LicenseInfoRequest fetches license state (admin).
type LicenseInfoRequest struct {
	ID string `json:"id"`
}

// LicenseInfoResponse mirrors slremote.License.
type LicenseInfoResponse struct {
	ID        string `json:"id"`
	Kind      uint8  `json:"kind"`
	TotalGCL  int64  `json:"total_gcl"`
	Remaining int64  `json:"remaining"`
	Revoked   bool   `json:"revoked"`
	Lost      int64  `json:"lost"`
	Consumed  int64  `json:"consumed,omitempty"`
}

// NotLeaderResponse redirects a license-scoped request to the shard's
// current leader. Epoch is the cluster directory epoch the answer is valid
// for; a client seeing epochs regress is talking to a stale server.
type NotLeaderResponse struct {
	License string `json:"license"`
	Leader  string `json:"leader,omitempty"`
	Epoch   uint64 `json:"epoch"`
}

// ReplPullRequest asks for the WAL records after position (gen, offset).
// MaxBytes caps one batch's raw record bytes (0: server default); the
// server may return less but always makes progress when records exist.
type ReplPullRequest struct {
	Gen      uint64 `json:"gen"`
	Offset   int64  `json:"offset"`
	MaxBytes int    `json:"max_bytes,omitempty"`
}

// ObsPullRequest asks for a server's observability state. Trace, when
// non-empty, filters the trace dump to one hex TraceID.
type ObsPullRequest struct {
	Trace string `json:"trace,omitempty"`
}

// ObsPullResponse carries the server's full-fidelity metric export, trace
// dump, and flight-recorder dump as raw JSON documents (the same bytes the
// HTTP endpoints serve), so the fleet scraper parses one format regardless
// of transport.
type ObsPullResponse struct {
	Metrics json.RawMessage `json:"metrics,omitempty"`
	Trace   json.RawMessage `json:"trace,omitempty"`
	Events  json.RawMessage `json:"events,omitempty"`
}

// ErrorResponse reports a server-side failure.
type ErrorResponse struct {
	Message string `json:"message"`
}

// ErrRemote wraps failures reported by the peer.
var ErrRemote = errors.New("wire: remote error")

// ErrNotLeader reports a license-scoped request that could not reach the
// owning shard leader: every redirect hop still answered not-leader (a
// routing loop between stale servers), or the reply named no leader at
// all (the shard is mid-failover).
var ErrNotLeader = errors.New("wire: not the shard leader")

// frameWriter serializes frames from concurrent goroutines onto one
// connection; the client's requests and the server's replies both go
// through it. Frames coalesce: each lands in a buffered writer, and only
// the last writer in a burst pays the Write syscall (pend counts writers
// queued for mu; whoever drops it to zero flushes). A lone frame flushes
// immediately, so a one-at-a-time peer pays no added latency.
type frameWriter struct {
	pend    atomic.Int64
	mu      sync.Mutex
	bw      *bufio.Writer // guardedby: mu — buffers frames onto conn
	conn    net.Conn
	timeout time.Duration // write deadline per frame, bounding a peer that stopped reading (0: none)
}

// newFrameWriter buffers frames onto conn, counting written bytes into n.
func newFrameWriter(conn net.Conn, n *atomic.Int64, timeout time.Duration) *frameWriter {
	return &frameWriter{bw: bufio.NewWriterSize(countWriter{conn, n}, 32<<10), conn: conn, timeout: timeout}
}

// write frames one envelope (see WriteMessage) onto the connection.
func (fw *frameWriter) write(msgType string, id uint64, payload any, tc *TraceContext) error {
	fw.pend.Add(1)
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.timeout > 0 {
		_ = fw.conn.SetWriteDeadline(time.Now().Add(fw.timeout))
	}
	err := WriteMessage(fw.bw, msgType, id, payload, tc)
	if fw.pend.Add(-1) == 0 {
		// Last writer in the burst: one Write syscall for every coalesced
		// frame. A writer that skips this has a successor already queued
		// on mu who will flush for it.
		if ferr := fw.bw.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// ReadMessage reads one envelope.
func ReadMessage(r io.Reader) (Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Envelope{}, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size == 0 || size > MaxMessageSize {
		return Envelope{}, fmt.Errorf("wire: invalid frame size %d", size)
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(r, frame); err != nil {
		return Envelope{}, fmt.Errorf("wire: reading frame: %w", err)
	}
	var env Envelope
	if err := json.Unmarshal(frame, &env); err != nil {
		return Envelope{}, fmt.Errorf("wire: decoding envelope: %w", err)
	}
	return env, nil
}

// DecodePayload unmarshals an envelope's payload into out.
func DecodePayload(env Envelope, out any) error {
	if len(env.Payload) == 0 {
		return errors.New("wire: empty payload")
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return fmt.Errorf("wire: decoding %s payload: %w", env.Type, err)
	}
	return nil
}

// RemoteErr extracts the error from an error envelope, or describes the
// unexpected type.
func RemoteErr(env Envelope) error {
	if env.Type == TypeError {
		var e ErrorResponse
		if err := DecodePayload(env, &e); err == nil {
			return fmt.Errorf("%w: %s", ErrRemote, e.Message)
		}
	}
	return fmt.Errorf("%w: unexpected reply type %q", ErrRemote, env.Type)
}
