// Package slremote implements SL-Remote, SecureLease's trusted license
// server (Sections 4.4, 5.1, 5.3 of the paper). SL-Remote:
//
//   - registers licenses, each with a total GCL budget TG shared by a
//     multi-party group of client machines;
//   - remote-attests every SL-Local instance once at initialization and
//     assigns it a stable SLID;
//   - escrows each SL-Local's lease-tree root key at graceful shutdown and
//     releases it (the "old backup key", OBK) at the next initialization —
//     the mechanism that defeats replay of stale lease trees;
//   - renews leases with the adaptive policy of Algorithm 1, sizing the
//     sub-GCL g_i granted to client i from its concurrency share α_i, the
//     scale-down factor D, node health h_i, network reliability n_i, and
//     the per-license expected-loss bound τ with scale factor β;
//   - applies the pessimistic crash policy (Section 5.7): an SL-Local
//     that re-initializes without an escrowed root key on record has
//     crashed, and forfeits every GCL it held.
package slremote

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/audit"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
)

// EnclaveCodeIdentity is the byte identity of the SL-Remote server
// enclave code; its sgx.MeasurementOf is what SL-Local daemons pin when
// they attest the server end of the wire channel.
var EnclaveCodeIdentity = []byte("securelease/sl-remote/v1")

// Errors returned by SL-Remote operations.
var (
	// ErrUnknownLicense reports an unregistered license ID.
	ErrUnknownLicense = errors.New("slremote: unknown license")
	// ErrUnknownClient reports an SLID that never initialized.
	ErrUnknownClient = errors.New("slremote: unknown client")
	// ErrLicenseExhausted reports a license whose global GCL pool is empty.
	ErrLicenseExhausted = errors.New("slremote: license exhausted")
	// ErrLicenseRevoked reports a revoked license.
	ErrLicenseRevoked = errors.New("slremote: license revoked")
	// ErrAttestationFailed reports a client that failed remote attestation.
	ErrAttestationFailed = errors.New("slremote: remote attestation failed")
	// ErrNoEscrow reports a re-initialization with no escrowed root key
	// (first boot, or state discarded after a crash).
	ErrNoEscrow = errors.New("slremote: no escrowed root key")
)

// Config tunes Algorithm 1. The defaults match the paper's evaluation
// setup (Section 7.4).
type Config struct {
	// D is the default scale-down factor: g_i starts at G_i / D.
	// The paper uses g_i = 25% of G_i, i.e. D = 4.
	D float64
	// HealthThreshold is T_H: only clients healthier than this receive the
	// network-compensation benefit. The paper uses 0.9.
	HealthThreshold float64
	// Beta is the initial per-license scale-down factor β (paper: 0.01).
	Beta float64
	// TauFraction sets each license's expected-loss bound τ as a fraction
	// of its total GCL (paper: 10%).
	TauFraction float64
}

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig() Config {
	return Config{
		D:               4,
		HealthThreshold: 0.9,
		Beta:            0.01,
		TauFraction:     0.10,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.D < 1 {
		return fmt.Errorf("slremote: D must be >= 1, got %v", c.D)
	}
	if c.HealthThreshold < 0 || c.HealthThreshold > 1 {
		return fmt.Errorf("slremote: health threshold must be in [0,1], got %v", c.HealthThreshold)
	}
	if c.Beta <= 0 || c.Beta > 1 {
		return fmt.Errorf("slremote: beta must be in (0,1], got %v", c.Beta)
	}
	if c.TauFraction <= 0 || c.TauFraction > 1 {
		return fmt.Errorf("slremote: tau fraction must be in (0,1], got %v", c.TauFraction)
	}
	return nil
}

// License is one registered license with its global GCL pool.
type License struct {
	ID string
	// Kind of lease this license's GCLs represent.
	Kind lease.Kind
	// TotalGCL is TG: the total number of GCL units the license may ever
	// hand out across all clients.
	TotalGCL int64
	// Interval is the discretization step for time-based and
	// execution-time-based licenses (defaults to 24h, the paper's
	// one-day evaluation-period example).
	Interval time.Duration
	// Remaining is the undistributed portion of TotalGCL.
	Remaining int64
	// Tau is the absolute expected-loss bound τ for this license.
	Tau float64
	// Revoked marks the license dead; all renewals are refused.
	Revoked bool
	// Lost counts GCL units forfeited by crashed clients.
	Lost int64
	// Consumed counts GCL units clients reported as spent (ConsumeReport).
	// Together the counters satisfy the conservation law the chaos harness
	// checks: TotalGCL == Remaining + Σ outstanding + Consumed + Lost.
	Consumed int64
}

// clientState is SL-Remote's view of one SL-Local instance.
type clientState struct {
	slid        string
	health      float64 // h_i ∈ [0,1]
	reliability float64 // n_i ∈ (0,1]
	weight      float64 // α_i (normalized across concurrent clients at use)
	escrow      seccrypto.Key
	hasEscrow   bool
	// outstanding maps license ID → sub-GCL units currently held.
	outstanding map[string]int64
}

// Server is the SL-Remote instance. It is safe for concurrent use.
type Server struct {
	cfg     Config
	service *attest.Service

	mu       sync.Mutex
	licenses map[string]*License
	clients  map[string]*clientState
	// holders indexes, per license ID, the clients with a positive
	// outstanding balance — Algorithm 1's concurrency set. Renewals walk
	// this index instead of every registered client, which is what keeps a
	// renewal O(holders of one license) when a shard serves hundreds of
	// thousands of clients.
	holders  map[string]map[string]*clientState
	nextSLID int
	persist  *persister // nil: in-memory only (see persist.go)
	audit    *audit.Log // nil: no audit trail (see AttachAudit)

	stats   ServerStats
	metrics atomic.Pointer[serverMetrics]
	flight  atomic.Pointer[obs.Tracer]

	// renews coalesces concurrent RenewLease calls into group-committed
	// batches; it has its own mutex, taken strictly before (never inside)
	// mu.
	renews renewBatcher
}

// SetFlightRecorder wires the node's event ring; the server marks denials
// and WAL compactions into it. A nil ring (the default) is free.
func (s *Server) SetFlightRecorder(rec *obs.Tracer) {
	s.flight.Store(rec)
}

// AttachAudit connects the tamper-evident lease-lifecycle audit log: from
// here on every issue, renewal (with its Algorithm-1 inputs), denial,
// revocation, escrow, and crash forfeit is appended to it. Call it AFTER
// RecoverServer — WAL replay re-runs historical mutations through the same
// apply helpers, and those must not re-append records the audit chain
// already holds. Appends are best-effort: a failing audit log (counted in
// audit_append_failures_total) never blocks lease operations.
func (s *Server) AttachAudit(log *audit.Log) {
	s.mu.Lock()
	s.audit = log
	s.mu.Unlock()
}

// auditLocked appends one audit record, best-effort (nil-safe).
func (s *Server) auditLocked(rec audit.Record) {
	_ = s.audit.Append(rec)
}

// ServerStats counts server-side events.
type ServerStats struct {
	RemoteAttestations int64
	Renewals           int64
	RenewalsDenied     int64
	CrashForfeits      int64
}

// NewServer builds an SL-Remote with the given attestation service. A nil
// service skips init-quote verification and charges the client machine the
// remote attestation instead. The sl-remote daemon runs that way: its
// RA-TLS channel attests the peer, and verifying the init quote itself
// belongs to binding the SLID to the attested client.
func NewServer(cfg Config, service *attest.Service) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{
		cfg:      cfg,
		service:  service,
		licenses: make(map[string]*License),
		clients:  make(map[string]*clientState),
		holders:  make(map[string]map[string]*clientState),
	}, nil
}

// RegisterLicense adds a license with a total budget of totalGCL units.
// τ is derived from the config's TauFraction.
func (s *Server) RegisterLicense(id string, kind lease.Kind, totalGCL int64) error {
	if totalGCL <= 0 {
		return fmt.Errorf("slremote: license %q total GCL must be positive, got %d", id, totalGCL)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.licenses[id]; dup {
		return fmt.Errorf("slremote: license %q already registered", id)
	}
	if err := s.logLocked(event{Op: opRegister, License: id, Kind: uint8(kind), TotalGCL: totalGCL}); err != nil {
		return err
	}
	s.applyRegisterLocked(id, kind, totalGCL)
	s.auditLocked(audit.Record{Op: audit.OpIssue, License: id, Units: totalGCL})
	s.maybeSnapshotLocked()
	return nil
}

// applyRegisterLocked installs a license; shared by RegisterLicense and WAL
// replay.
func (s *Server) applyRegisterLocked(id string, kind lease.Kind, totalGCL int64) {
	lic := &License{
		ID:        id,
		Kind:      kind,
		TotalGCL:  totalGCL,
		Remaining: totalGCL,
		Tau:       s.cfg.TauFraction * float64(totalGCL),
	}
	if kind == lease.TimeBased || kind == lease.ExecTimeBased {
		lic.Interval = 24 * time.Hour
	}
	s.licenses[id] = lic
}

// License returns a copy of the license record.
func (s *Server) License(id string) (License, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lic, ok := s.licenses[id]
	if !ok {
		return License{}, fmt.Errorf("%w: %q", ErrUnknownLicense, id)
	}
	return *lic, nil
}

// Revoke kills a license: future renewals fail, and the paper's semantics
// (Section 4.3) set the counter to zero — SL-Local learns at its next
// contact.
func (s *Server) Revoke(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lic, ok := s.licenses[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownLicense, id)
	}
	if err := s.logLocked(event{Op: opRevoke, License: id}); err != nil {
		return err
	}
	s.applyRevokeLocked(lic)
	s.auditLocked(audit.Record{Op: audit.OpRevoke, License: id})
	s.maybeSnapshotLocked()
	return nil
}

func (s *Server) applyRevokeLocked(lic *License) {
	lic.Revoked = true
	if m := s.metrics.Load(); m != nil {
		m.revocations.Inc()
	}
}

// InitResult is what a successfully initialized SL-Local receives.
type InitResult struct {
	// SLID is the client's stable identifier (new or confirmed).
	SLID string
	// OBK is the escrowed root key from the previous graceful shutdown;
	// zero when HasOBK is false (first boot or post-crash).
	OBK    seccrypto.Key
	HasOBK bool
}

// InitClient performs the init() handshake of Section 5.2.4: verify the
// client's remote-attestation quote (charging the multi-second RA latency
// to the client's machine), assign or confirm its SLID, and release any
// escrowed root key. An empty slid requests a fresh identity.
func (s *Server) InitClient(slid string, quote attest.Quote, clientMachine *sgx.Machine) (InitResult, error) {
	if s.service != nil {
		if err := s.service.VerifyQuote(quote, clientMachine); err != nil {
			return InitResult{}, fmt.Errorf("%w: %v", ErrAttestationFailed, err)
		}
	} else if clientMachine != nil {
		clientMachine.ChargeRemoteAttestation()
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	next := s.nextSLID
	if slid == "" {
		next++
		slid = "slid-" + strconv.Itoa(next)
	}
	if err := s.logLocked(event{Op: opInit, SLID: slid, NextSLID: next}); err != nil {
		return InitResult{}, err
	}
	res := s.applyInitLocked(slid, next)
	s.auditLocked(audit.Record{Op: audit.OpInit, SLID: slid})
	s.maybeSnapshotLocked()
	return res, nil
}

// applyInitLocked is the state-transition half of init(): SLID bookkeeping,
// the pessimistic crash/forfeit rules of Section 5.7, and single-use escrow
// release. It is deterministic given the current state, which is what makes
// WAL replay rebuild an identical server.
func (s *Server) applyInitLocked(slid string, nextSLID int) InitResult {
	s.stats.RemoteAttestations++
	s.nextSLID = nextSLID
	c, ok := s.clients[slid]
	if !ok {
		c = &clientState{
			slid:        slid,
			health:      1,
			reliability: 1,
			weight:      1,
			outstanding: make(map[string]int64),
		}
		s.clients[slid] = c
	}
	res := InitResult{SLID: slid}
	if !c.hasEscrow {
		// A client that returns holding leases but without a graceful
		// shutdown on record must have crashed (or be replaying): forfeit
		// everything it held (Section 5.7). This is the one place a crash
		// is detected.
		s.forfeitLocked(c)
		return res
	}
	res.OBK = c.escrow
	res.HasOBK = true
	c.hasEscrow = false // single use; a fresh key arrives at next shutdown
	return res
}

// SetClientProfile updates SL-Remote's view of a client's health h,
// network reliability n, and demand weight α. Values are clamped to their
// domains; reliability is floored at a small epsilon to avoid division by
// zero in the network-compensation term.
func (s *Server) SetClientProfile(slid string, health, reliability, weight float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[slid]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClient, slid)
	}
	if err := s.logLocked(event{Op: opProfile, SLID: slid, Health: health, Reliability: reliability, Weight: weight}); err != nil {
		return err
	}
	applyProfile(c, health, reliability, weight)
	if m := s.metrics.Load(); m != nil {
		m.alg1Health.With(slid).Set(c.health)
		m.alg1Reliability.With(slid).Set(c.reliability)
	}
	s.maybeSnapshotLocked()
	return nil
}

// applyProfile clamps and installs Algorithm 1's per-client inputs.
func applyProfile(c *clientState, health, reliability, weight float64) {
	c.health = clamp01(health)
	c.reliability = math.Max(clamp01(reliability), 1e-3)
	if weight < 0 {
		weight = 0
	}
	c.weight = weight
}

// EscrowRootKey stores the client's lease-tree root key at graceful
// shutdown (Section 5.6).
func (s *Server) EscrowRootKey(slid string, key seccrypto.Key) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[slid]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClient, slid)
	}
	if s.persist != nil {
		// The root key is the one secret SL-Remote holds for a client;
		// it is sealed before the WAL record leaves the (simulated)
		// enclave, so plaintext key material never reaches disk.
		sealed, err := seccrypto.ProtectWithKey(key.Bytes(), s.persist.sealKey, nil)
		if err != nil {
			return fmt.Errorf("slremote: sealing escrowed key: %w", err)
		}
		if err := s.logLocked(event{Op: opEscrow, SLID: slid, SealedKey: sealed}); err != nil {
			return err
		}
	}
	s.applyEscrowLocked(c, key)
	s.auditLocked(audit.Record{Op: audit.OpEscrow, SLID: slid})
	s.maybeSnapshotLocked()
	return nil
}

func (s *Server) applyEscrowLocked(c *clientState, key seccrypto.Key) {
	c.escrow = key
	c.hasEscrow = true
	if m := s.metrics.Load(); m != nil {
		m.escrows.Inc()
	}
}

// forfeitLocked is the pessimistic crash policy's transfer: every unit the
// client holds moves to its license's Lost counter — the quantity τ
// bounds in expectation. An init() that finds no escrowed key applies it.
func (s *Server) forfeitLocked(c *clientState) {
	for licID, held := range c.outstanding {
		delete(c.outstanding, licID)
		if held == 0 {
			continue
		}
		if lic, ok := s.licenses[licID]; ok {
			lic.Lost += held
			if m := s.metrics.Load(); m != nil {
				m.licenseLost.With(licID).Set(float64(lic.Lost))
			}
		}
		s.clearHolderLocked(licID, c)
		s.stats.CrashForfeits++
		s.auditLocked(audit.Record{Op: audit.OpCrashForfeit, SLID: c.slid, License: licID, Units: held})
	}
}

// Grant is a renewal result: the sub-GCL handed to the client.
type Grant struct {
	License string
	// Units is g_i, the number of GCL units granted.
	Units int64
	// GCL is a ready-to-install lease counter for SL-Local.
	GCL lease.GCL
}

// renewCall is one waiter in the renewal batcher — a request parked until
// the batch that carries it commits (or denies it) — and that batch's
// working state for the request.
type renewCall struct {
	slid    string
	license string
	grant   Grant
	err     error
	// wake carries the signals a parked caller gets: true once its batch
	// is finished (grant and err are set); before that, false if the
	// outgoing leader hands it the leader role. Buffered, and each signal
	// is sent at most once with the false consumed before the true is
	// sent, so no sender ever blocks.
	wake chan bool

	// Set by renewBatch's passes, under Server.mu.
	c   *clientState
	lic *License
	st  alg1State
}

// renewBatcher coalesces concurrent RenewLease calls into group commits.
// The first caller to find no leader becomes the leader: it takes the
// pending queue (its own call included) and processes that batch under ONE
// hold of Server.mu with ONE write-ahead-log append (which rides the
// store's batched-fsync window), fans the per-caller results back out, and
// returns to its own caller. If more calls parked meanwhile it hands the
// role to the oldest of them, which leads the batch it is in — so no
// caller waits on a batch that does not contain its own request.
//
// Lock order: renewBatcher.mu is released before Server.mu is taken and
// is never acquired while holding it.
type renewBatcher struct {
	mu      sync.Mutex
	pending []*renewCall // guardedby: mu — calls waiting for the next batch
	leading bool         // guardedby: mu — a leader is processing a batch, or one was just handed the role
}

// RenewLease runs Algorithm 1 for the named client and license and, on
// success, transfers g_i units from the license pool to the client.
//
// The concurrency C and the weight normalization Σα = 1 are computed over
// the clients currently holding or requesting this license.
//
// Concurrent calls coalesce: one caller leads, folding every pending
// renewal into a single pass under the state lock with a single
// group-committed WAL append, so N pipelined renewals cost one fsync
// window instead of N.
func (s *Server) RenewLease(slid, licenseID string) (Grant, error) {
	call := &renewCall{slid: slid, license: licenseID, wake: make(chan bool, 1)}
	b := &s.renews
	b.mu.Lock()
	b.pending = append(b.pending, call)
	if b.leading {
		b.mu.Unlock()
		if <-call.wake {
			return call.grant, call.err
		}
		// Handed the role: the batch to lead is everything parked by now,
		// this call (the oldest) included.
		b.mu.Lock()
	}
	b.leading = true
	batch := b.pending
	b.pending = nil
	b.mu.Unlock()

	s.renewBatch(batch)

	b.mu.Lock()
	var next *renewCall
	if len(b.pending) > 0 {
		next = b.pending[0]
	} else {
		b.leading = false
	}
	b.mu.Unlock()
	if next != nil {
		next.wake <- false
	}
	return call.grant, call.err
}

// renewBatch processes one batch: every call's Algorithm-1 grant is
// computed against the batch-start state (with a per-license running pool
// balance so the batch can never over-grant), the surviving grants are
// made durable with one WAL append, and only then applied. Denials are
// audited individually and never logged — a denial mutates nothing. A
// batch of one takes exactly the same path.
func (s *Server) renewBatch(batch []*renewCall) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer func() {
		for _, call := range batch {
			call.wake <- true
		}
	}()

	// Resolve every call first and collect, per license, the requesters in
	// this batch: Algorithm 1 prices each grant against the license's
	// holders plus ALL of its batch co-requesters, so a thundering herd
	// renewing one license divides the pool the same way sequential
	// arrival would, instead of each request pricing itself as the only
	// newcomer.
	coByLic := make(map[string][]*clientState)
	for _, call := range batch {
		c, ok := s.clients[call.slid]
		if !ok {
			call.err = fmt.Errorf("%w: %q", ErrUnknownClient, call.slid)
			continue
		}
		lic, ok := s.licenses[call.license]
		if !ok {
			call.err = fmt.Errorf("%w: %q", ErrUnknownLicense, call.license)
			continue
		}
		call.c, call.lic = c, lic
		coByLic[lic.ID] = append(coByLic[lic.ID], c)
	}

	// The WAL records the Algorithm 1 *outcomes* (the granted units), not
	// the requests, so replay applies the exact historical transfers
	// instead of re-running the policy against a drifting view. grants is
	// that record, built as the calls are planned; a call is planned iff
	// it leaves this pass with a nil err.
	grants := make([]renewGrant, 0, len(batch))
	// remaining simulates each license's pool across the batch: grants
	// planned earlier in the batch shrink what later ones may take, even
	// though nothing is applied until the WAL append succeeds.
	remaining := make(map[*License]int64)
	for _, call := range batch {
		if call.err != nil {
			continue // unresolved above
		}
		c, lic := call.c, call.lic
		rem, seen := remaining[lic]
		if !seen {
			rem = lic.Remaining
		}
		if lic.Revoked {
			s.denyLocked(call, fmt.Errorf("%w: %q", ErrLicenseRevoked, call.license))
			continue
		}
		if rem <= 0 {
			s.denyLocked(call, fmt.Errorf("%w: %q", ErrLicenseExhausted, call.license))
			continue
		}

		var units int64
		if lic.Kind == lease.Perpetual {
			// A perpetual license is a seat, not a consumable budget:
			// activation transfers one whole unit, never a sub-division.
			units = 1
			call.st = alg1State{alpha: 1, gMax: 1, health: c.health, reliability: c.reliability}
		} else {
			units, call.st = s.alg1Locked(c, lic, coByLic[lic.ID])
			if units <= 0 {
				// Algorithm 1's scale-downs can floor small pools to zero;
				// a live license always yields at least one unit so small
				// (e.g. 3-interval trial) licenses remain usable.
				units = 1
			}
		}
		if units > rem {
			units = rem
		}
		remaining[lic] = rem - units
		grants = append(grants, renewGrant{SLID: call.slid, License: call.license, Units: units})
	}

	if len(grants) == 0 {
		return
	}
	if err := s.logLocked(event{Op: opRenew, Grants: grants}); err != nil {
		for _, call := range batch {
			if call.err == nil {
				call.err = err
			}
		}
		return
	}

	planned := 0
	for _, call := range batch {
		if call.err != nil {
			continue
		}
		units := grants[planned].Units
		planned++
		s.applyRenewLocked(call.c, call.lic, units)

		// Effective scale-down: the ratio the policy actually applied
		// between the client's proportional ceiling G_i and the granted
		// g_i. It starts at the configured D and grows as
		// health/reliability/expected-loss corrections bite.
		scale := s.cfg.D
		if call.st.gMax > 0 {
			scale = call.st.gMax / float64(units)
		}
		if m := s.metrics.Load(); m != nil {
			m.alg1Alpha.With(call.slid).Set(call.st.alpha)
			m.alg1ScaleDown.With(call.slid).Set(scale)
			m.alg1Health.With(call.slid).Set(call.st.health)
			m.alg1Reliability.With(call.slid).Set(call.st.reliability)
		}
		s.auditLocked(audit.Record{
			Op: audit.OpRenew, SLID: call.slid, License: call.license, Units: units,
			Alg1: &audit.Alg1{
				Alpha:        call.st.alpha,
				ScaleDown:    scale,
				Health:       call.st.health,
				Reliability:  call.st.reliability,
				ExpectedLoss: call.st.expLoss,
			},
		})
		call.grant = Grant{
			License: call.license,
			Units:   units,
			GCL:     lease.GCL{Kind: call.lic.Kind, Counter: units, Interval: call.lic.Interval},
		}
	}
	s.maybeSnapshotLocked()
}

// denyLocked refuses one renewal: counted, audited, and recorded in the
// event ring, but never logged — a denial mutates nothing.
func (s *Server) denyLocked(call *renewCall, err error) {
	s.stats.RenewalsDenied++
	s.auditLocked(audit.Record{Op: audit.OpDeny, SLID: call.slid, License: call.license, Err: err.Error()})
	s.flight.Load().Mark("slremote.denial", "slid", call.slid, "license", call.license, "err", err.Error())
	call.err = err
}

// applyRenewLocked transfers units from the license pool to the client.
func (s *Server) applyRenewLocked(c *clientState, lic *License, units int64) {
	lic.Remaining -= units
	c.outstanding[lic.ID] += units
	if c.outstanding[lic.ID] > 0 {
		s.setHolderLocked(lic.ID, c)
	}
	s.stats.Renewals++
	if m := s.metrics.Load(); m != nil {
		m.grantUnits.Observe(float64(units))
		m.licenseRemaining.With(lic.ID).Set(float64(lic.Remaining))
	}
}

// alg1State captures the Algorithm-1 inputs and intermediates behind one
// renewal decision, feeding the audit log's renew records and the
// slremote_alg1_* gauges.
type alg1State struct {
	alpha       float64 // α_i, normalized concurrency share
	gMax        float64 // G_i, the proportional ceiling (line 3)
	health      float64 // h_i as used
	reliability float64 // n_i as used
	expLoss     float64 // Equation 1 after the final scale-down
}

// alg1Locked is Algorithm 1 (RenewLease) from the paper, priced against
// the license's concurrency set: its current holders, the requester c, and
// co, the requesters sharing c's batch (see concurrencySetLocked).
func (s *Server) alg1Locked(c *clientState, lic *License, co []*clientState) (int64, alg1State) {
	holders, weightSum := s.concurrencySetLocked(lic.ID, c, co)
	concurrency := float64(len(holders))
	alpha := c.weight / weightSum // α_i with Σα_i = 1

	tg := float64(lic.TotalGCL)
	gMax := alpha * tg / concurrency // G_i  (line 3)
	g := gMax / s.cfg.D              // default policy (line 4)
	g *= c.health                    // crash penalty (line 5)
	if c.health > s.cfg.HealthThreshold {
		// Network benefit for healthy clients on flaky links (line 7).
		g = math.Min(gMax, g*(1/c.reliability))
	}

	beta := s.cfg.Beta // FetchBeta() (line 9)
	expLoss := s.expectedLossLocked(lic.ID, holders, c, g)
	if expLoss > lic.Tau {
		// Scale down until the expected loss is bounded (lines 10-14).
		for iter := 0; iter < 64 && expLoss > lic.Tau && g >= 1; iter++ {
			beta *= (expLoss - lic.Tau) / expLoss
			g = beta * g
			expLoss = s.expectedLossLocked(lic.ID, holders, c, g)
		}
	} else {
		// Line 16 ("scaling up"): β = (τ − ExpLoss)/τ, g = β·g. As written
		// in the paper this damps the grant in proportion to how much loss
		// headroom has been consumed; with zero expected loss it leaves g
		// unchanged.
		beta = (lic.Tau - expLoss) / lic.Tau
		g = beta * g
	}
	if g < 0 {
		g = 0
	}
	if m := s.metrics.Load(); m != nil {
		m.expectedLoss.With(lic.ID).Set(expLoss)
	}
	return int64(math.Floor(g)), alg1State{
		alpha:       alpha,
		gMax:        gMax,
		health:      c.health,
		reliability: c.reliability,
		expLoss:     expLoss,
	}
}

// concurrencySetLocked returns the clients that currently hold or are
// requesting the license — the requester first, then the holders and the
// batch's other requesters co (duplicates and the requester itself
// dropped) — and their total weight. A batch prices every
// grant as if all its requesters already held the license, which is the
// state sequential arrival converges to; a lone request passes no co and
// is priced against the holders alone. The set comes back in sorted-SLID
// order so the floating-point sums built over it (weight normalization,
// Equation 1) are reproducible — seeded harness runs depend on that, and
// map order would break it.
func (s *Server) concurrencySetLocked(licenseID string, requester *clientState, co []*clientState) ([]*clientState, float64) {
	idx := s.holders[licenseID]
	set := make([]*clientState, 1, 1+len(idx)+len(co))
	set[0] = requester
	for _, holder := range idx {
		set = append(set, holder)
	}
	set = append(set, co...)
	// One SLID is one *clientState, so after sorting duplicates are
	// adjacent equal pointers.
	others := set[1:]
	slices.SortFunc(others, func(a, b *clientState) int { return strings.Compare(a.slid, b.slid) })
	others = slices.Compact(others)
	others = slices.DeleteFunc(others, func(c *clientState) bool { return c == requester })
	set = set[:1+len(others)]
	var weightSum float64
	for _, c := range set {
		weightSum += c.weight
	}
	if weightSum <= 0 {
		weightSum = 1
	}
	return set, weightSum
}

// setHolderLocked and clearHolderLocked maintain the per-license holder
// index; every mutation of a client's outstanding balance goes through one
// of them.
func (s *Server) setHolderLocked(licenseID string, c *clientState) {
	idx := s.holders[licenseID]
	if idx == nil {
		idx = make(map[string]*clientState)
		s.holders[licenseID] = idx
	}
	idx[c.slid] = c
}

func (s *Server) clearHolderLocked(licenseID string, c *clientState) {
	idx := s.holders[licenseID]
	delete(idx, c.slid)
	if len(idx) == 0 {
		delete(s.holders, licenseID)
	}
}

// expectedLossLocked computes Equation 1: ExpLoss(L) = Σ g_i (1 − h_i),
// over current holders, with the requester's holding augmented by the
// candidate grant g.
func (s *Server) expectedLossLocked(licenseID string, holders []*clientState, requester *clientState, g float64) float64 {
	var loss float64
	for _, h := range holders {
		held := float64(h.outstanding[licenseID])
		if h == requester {
			held += g
		}
		loss += held * (1 - h.health)
	}
	return loss
}

// ConsumeReport lets a client report consumption of previously granted
// units (so the server's outstanding view tracks reality and expected-loss
// computations stay honest).
func (s *Server) ConsumeReport(slid, licenseID string, units int64) error {
	if units < 0 {
		return fmt.Errorf("slremote: negative consumption %d", units)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[slid]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownClient, slid)
	}
	held := c.outstanding[licenseID]
	if units > held {
		units = held
	}
	if err := s.logLocked(event{Op: opConsume, SLID: slid, License: licenseID, Units: units}); err != nil {
		return err
	}
	s.applyConsumeLocked(c, licenseID, units)
	s.maybeSnapshotLocked()
	return nil
}

// applyConsumeLocked moves units from the client's outstanding balance to
// the license's consumed ledger; shared by ConsumeReport and WAL replay.
// Without the Consumed counter the units would simply vanish, and no
// global invariant over the license pool could ever balance.
func (s *Server) applyConsumeLocked(c *clientState, licenseID string, units int64) {
	c.outstanding[licenseID] -= units
	if c.outstanding[licenseID] <= 0 {
		s.clearHolderLocked(licenseID, c)
	}
	if lic, ok := s.licenses[licenseID]; ok {
		lic.Consumed += units
		if m := s.metrics.Load(); m != nil {
			m.licenseConsumed.With(licenseID).Set(float64(lic.Consumed))
		}
	}
}

// Outstanding returns the units of the license currently held by a client.
func (s *Server) Outstanding(slid, licenseID string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[slid]
	if !ok {
		return 0
	}
	return c.outstanding[licenseID]
}

// Stats returns a copy of the server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
