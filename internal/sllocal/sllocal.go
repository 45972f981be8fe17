// Package sllocal implements SL-Local, the in-enclave local lease service
// of SecureLease (Section 5.2 of the paper). SL-Local runs inside Intel
// SGX on each client machine and attests license-check requests from the
// SL-Managers of applications on the same machine, eliminating the
// multi-second remote attestation from the hot path:
//
//   - it holds sub-GCLs obtained from SL-Remote in a lease tree whose cold
//     entries are committed and evicted to untrusted memory;
//   - each request is served after a local attestation with the requesting
//     enclave; a request may be granted a batch of execution tokens
//     (the paper's 10-tokens-per-attestation optimization, Section 7.3);
//   - at graceful shutdown the whole tree is committed and the root key
//     escrowed with SL-Remote; a crash forfeits everything (Section 5.7).
package sllocal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/leasetree"
	"repro/internal/obs"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/slremote"
)

// EnclaveCodeIdentity is the byte identity of the SL-Local enclave code;
// platforms that should trust SL-Local trust the measurement of this.
var EnclaveCodeIdentity = []byte("securelease/sl-local/v1")

// Errors returned by SL-Local.
var (
	// ErrNotInitialized reports use before Init.
	ErrNotInitialized = errors.New("sllocal: service not initialized")
	// ErrStopped reports use after Shutdown or Crash, until the next Init.
	ErrStopped = errors.New("sllocal: service stopped")
	// ErrLeaseDenied reports that no valid lease could be produced for the
	// license — expired locally and renewal refused by SL-Remote.
	ErrLeaseDenied = errors.New("sllocal: lease denied")
	// ErrAttestation reports a failed local attestation with a requester.
	ErrAttestation = errors.New("sllocal: local attestation failed")
)

// Config tunes one SL-Local instance.
type Config struct {
	// TokenBatch is the number of execution grants issued per local
	// attestation (1 = no batching; the paper evaluates 10).
	TokenBatch int
	// MemoryBudget caps the lease tree's trusted footprint in bytes;
	// 0 disables eviction.
	MemoryBudget int64
	// TreePages is the number of EPC pages reserved for SL-Local state
	// up front (the SGX model requires memory to be declared at build
	// time). Defaults to enough for the budget, minimum 16.
	TreePages int
}

// DefaultConfig returns the paper's SL-Local setup: 10-token batches and
// the ~1.6 MB footprint of Table 6.
func DefaultConfig() Config {
	return Config{
		TokenBatch:   10,
		MemoryBudget: 1600 << 10,
	}
}

func (c Config) withDefaults() Config {
	if c.TokenBatch <= 0 {
		c.TokenBatch = 1
	}
	if c.TreePages <= 0 {
		pages := int(c.MemoryBudget/sgx.PageSize) + 1
		if pages < 16 {
			pages = 16
		}
		c.TreePages = pages
	}
	return c
}

// UntrustedState is SL-Local's persistent state on the client machine's
// untrusted storage: the plaintext SLID file and the committed lease-tree
// snapshot (both useless without SL-Remote's escrowed root key). A Service
// restarts in place over its own copy; a copy handed to a new Service is
// the same machine's disk seen by another process.
type UntrustedState struct {
	SLID     string
	Snapshot *leasetree.Snapshot
	// DirectorySealed is the sealed license→leaseID directory. Sealed to
	// the SL-Local enclave measurement; replaying an old directory can
	// only lose mappings (the authoritative counters live in the tree,
	// which is freshness-protected by the escrowed root key).
	DirectorySealed []byte
	// NextIDBlock persists the ID allocator's high-water mark.
	NextIDBlock uint32
}

// RemoteAPI is the slice of SL-Remote that SL-Local depends on. It is
// satisfied by *slremote.Server directly and by the wire package's TCP
// client, so the same Service runs embedded or against a remote daemon.
// The network between the two is the remote's concern: over TCP it is
// real, and in process chaos.Link.Wrap models it.
type RemoteAPI interface {
	// InitClient performs the init() handshake: quote verification, SLID
	// assignment, and escrowed-root-key release.
	InitClient(slid string, quote attest.Quote, clientMachine *sgx.Machine) (slremote.InitResult, error)
	// RenewLease runs Algorithm 1 and transfers a sub-GCL.
	RenewLease(slid, licenseID string) (slremote.Grant, error)
	// EscrowRootKey stores the lease-tree root key at graceful shutdown.
	EscrowRootKey(slid string, key seccrypto.Key) error
}

// tracedRemote is the optional extension of RemoteAPI implemented by
// remotes (the wire package's TCP client) whose RPC spans can nest under
// a caller span, so a renewal traced here and the handler span on the
// SL-Remote daemon share one TraceID. Plain RemoteAPI implementations
// (the embedded *slremote.Server) simply skip the linkage.
type tracedRemote interface {
	InitClientSpan(parent *obs.Span, slid string, quote attest.Quote, clientMachine *sgx.Machine) (slremote.InitResult, error)
	RenewLeaseSpan(parent *obs.Span, slid, licenseID string) (slremote.Grant, error)
	EscrowRootKeySpan(parent *obs.Span, slid string, key seccrypto.Key) error
}

// Deps wires a Service to its environment.
type Deps struct {
	// Machine is the client machine.
	Machine *sgx.Machine
	// Platform provides attestation on that machine.
	Platform *attest.Platform
	// Remote is the license server: an embedded *slremote.Server or the
	// wire package's TCP client.
	Remote RemoteAPI
	// State is the machine's persistent untrusted state, read at every
	// Init and written at Shutdown. New allocates an empty one (a fresh
	// machine) when it is nil.
	State *UntrustedState
}

// Service is SL-Local for the life of one machine process: Init starts an
// incarnation, Shutdown or Crash ends it, and the next Init restarts over
// the same untrusted state. It is safe for concurrent use after Init.
type Service struct {
	cfg  Config
	deps Deps

	enclave *sgx.Enclave

	mu      sync.Mutex
	state   serviceState
	slid    string
	tree    *leasetree.Tree
	dir     map[string]lease.ID // license → lease ID
	nextBlk uint32              // ID allocator high-water mark
	curBlk  *leasetree.Block
	nonce   uint64

	// stats and treeBase (the tree counters of earlier incarnations) count
	// the whole process, across restarts.
	stats    Stats
	treeBase leasetree.TreeStats
	metrics  atomic.Pointer[svcMetrics]
}

type serviceState uint8

const (
	stateNew serviceState = iota
	stateRunning
	stateStopped
)

// Stats counts SL-Local events.
type Stats struct {
	Requests        int64 // license-check requests served
	TokensIssued    int64 // total execution grants issued
	LocalAttests    int64 // local attestations performed
	Renewals        int64 // round trips to SL-Remote
	RenewalFailures int64
	Denials         int64
}

// New builds an SL-Local service. Call Init before use.
func New(cfg Config, deps Deps) (*Service, error) {
	if deps.Machine == nil || deps.Platform == nil || deps.Remote == nil {
		return nil, errors.New("sllocal: machine, platform, and remote are required")
	}
	if deps.Platform.Machine() != deps.Machine {
		return nil, errors.New("sllocal: platform is bound to a different machine")
	}
	if deps.State == nil {
		deps.State = &UntrustedState{}
	}
	return &Service{cfg: cfg.withDefaults(), deps: deps}, nil
}

// Enclave returns the SL-Local enclave (nil before Init). Applications use
// its measurement to decide whom to attest against.
func (s *Service) Enclave() *sgx.Enclave {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enclave
}

// SLID returns the identifier assigned by SL-Remote (empty before Init).
func (s *Service) SLID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slid
}

// Stats returns a copy of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// TreeFootprint returns the lease tree's trusted-memory footprint.
func (s *Service) TreeFootprint() int64 {
	s.mu.Lock()
	tr := s.tree
	s.mu.Unlock()
	if tr == nil {
		return 0
	}
	return tr.Footprint()
}

// Init performs SL-Local initialization (Section 5.2.4): create the
// enclave, remote-attest with SL-Remote via a quote, receive the SLID and
// (if a graceful shutdown preceded) the old backup key, and restore the
// saved lease tree with it. After Shutdown or Crash it restarts the
// service: nothing of the last incarnation's enclave memory survives, only
// the untrusted state.
func (s *Service) Init() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == stateRunning {
		return nil
	}

	enclave, err := s.deps.Machine.CreateEnclave("sl-local", EnclaveCodeIdentity, s.cfg.TreePages)
	if err != nil {
		return fmt.Errorf("sllocal: creating enclave: %w", err)
	}
	s.enclave = enclave

	quote, err := s.deps.Platform.CreateQuote(enclave, nil)
	if err != nil {
		enclave.Destroy()
		return fmt.Errorf("sllocal: creating quote: %w", err)
	}

	slid := s.deps.State.SLID
	span := s.tracerLoad().Start("sllocal.init")
	span.Annotate("machine", s.deps.Machine.Name())
	var res slremote.InitResult
	if trm, ok := s.deps.Remote.(tracedRemote); ok {
		res, err = trm.InitClientSpan(span, slid, quote, s.deps.Machine)
	} else {
		res, err = s.deps.Remote.InitClient(slid, quote, s.deps.Machine)
	}
	span.End(err)
	if err != nil {
		enclave.Destroy()
		return fmt.Errorf("sllocal: init with SL-Remote: %w", err)
	}
	s.slid = res.SLID

	if s.tree != nil {
		s.treeBase = addTreeStats(s.treeBase, s.tree.Stats())
	}
	s.dir = make(map[string]lease.ID)
	s.nextBlk = 1
	s.curBlk = nil
	restored := false
	if res.HasOBK && s.deps.State.Snapshot != nil {
		tree, rerr := leasetree.Restore(*s.deps.State.Snapshot, res.OBK)
		if rerr == nil {
			s.tree = tree
			restored = true
			if derr := s.restoreDirectoryLocked(); derr != nil {
				// Directory lost: the counters are intact but unmapped;
				// start a fresh tree to stay consistent.
				s.tree = leasetree.NewTree()
				s.dir = make(map[string]lease.ID)
				restored = false
			}
		}
		// A failed restore (tampered or replayed snapshot) falls through
		// to a fresh tree: the leases are gone, which is the pessimistic
		// policy's intent.
	}
	if !restored {
		s.tree = leasetree.NewTree()
	}
	if s.cfg.MemoryBudget > 0 {
		s.tree.SetBudget(s.cfg.MemoryBudget)
	}
	s.deps.State.SLID = s.slid
	s.deps.State.Snapshot = nil // consumed; stale copies must not linger
	s.state = stateRunning
	return nil
}

// restoreDirectoryLocked unseals the license directory saved at the last
// shutdown.
func (s *Service) restoreDirectoryLocked() error {
	if len(s.deps.State.DirectorySealed) == 0 {
		return errors.New("sllocal: no sealed directory")
	}
	plain, err := s.enclave.Unseal(s.deps.State.DirectorySealed)
	if err != nil {
		return err
	}
	dir, nextBlk, err := decodeDirectory(plain)
	if err != nil {
		return err
	}
	s.dir = dir
	s.nextBlk = nextBlk
	return nil
}

// RequestToken is the full license-check flow (Section 4.4): mutual local
// attestation with the requesting enclave, lease lookup (renewing from
// SL-Remote if the local sub-GCL is absent or exhausted), counter
// decrement, and token issuance. With batching configured, up to
// Config.TokenBatch grants are folded into the returned token.
func (s *Service) RequestToken(requester *sgx.Enclave, licenseID string) (lease.Token, error) {
	if requester == nil {
		return lease.Token{}, errors.New("sllocal: nil requester")
	}
	if m := s.metrics.Load(); m != nil {
		start := time.Now()
		defer func() { m.requestLatency.Observe(time.Since(start).Seconds()) }()
	}
	s.mu.Lock()
	switch s.state {
	case stateNew:
		s.mu.Unlock()
		return lease.Token{}, ErrNotInitialized
	case stateStopped:
		s.mu.Unlock()
		return lease.Token{}, ErrStopped
	}
	s.stats.Requests++
	enclave := s.enclave
	tree := s.tree
	s.mu.Unlock()

	// Step ❶: local attestation between SL-Manager and SL-Local, then the
	// request enters the SL-Local enclave (one ECALL). This runs outside
	// the service lock so concurrent enclaves attest in parallel — the
	// behaviour Figure 8's concurrency sweep measures.
	if err := s.deps.Platform.MutualLocalAttest(requester, enclave); err != nil {
		return lease.Token{}, fmt.Errorf("%w: %v", ErrAttestation, err)
	}
	if err := enclave.ECall(nil); err != nil {
		return lease.Token{}, err
	}
	s.mu.Lock()
	s.stats.LocalAttests++

	id, ok := s.dir[licenseID]
	if !ok {
		// First sight of this license on this machine: allocate a lease
		// slot with spatial locality and fetch a sub-GCL. Held under the
		// lock so one renewal serves concurrent first sights.
		grant, err := s.renewLocked(licenseID)
		if err != nil {
			s.stats.Denials++
			s.mu.Unlock()
			return lease.Token{}, err
		}
		id = s.allocIDLocked()
		s.dir[licenseID] = id
		rec := lease.Record{ID: id, GCL: grant.GCL, Owner: licenseID}
		if rec.GCL.Kind == lease.TimeBased && rec.GCL.LastUpdate == 0 {
			// Anchor the interval clock at install time (Section 4.3's
			// "additional state information").
			rec.GCL.LastUpdate = s.virtualNow().UnixNano()
		}
		if err := s.tree.Put(rec); err != nil {
			s.mu.Unlock()
			return lease.Token{}, fmt.Errorf("sllocal: storing lease: %w", err)
		}
	}
	s.mu.Unlock()

	// Step ❷: consume from the local GCL (the tree has its own lock);
	// step ❸ on exhaustion: renew.
	granted := 0
	want := s.cfg.TokenBatch
	consume := func(r *lease.Record) error {
		for granted < want && r.GCL.Valid() {
			if err := r.GCL.Consume(s.virtualNow()); err != nil {
				return nil // treat as exhausted; renewal below
			}
			granted++
		}
		return nil
	}
	if err := tree.Update(id, consume); err != nil {
		return lease.Token{}, fmt.Errorf("sllocal: lease update: %w", err)
	}
	if granted < want {
		// Local sub-GCL exhausted: contact SL-Remote for a renewal.
		s.mu.Lock()
		grant, err := s.renewLocked(licenseID)
		s.mu.Unlock()
		if err != nil {
			if granted > 0 {
				// Partial batch is still a valid grant.
				return s.mintToken(id, licenseID, granted), nil
			}
			s.mu.Lock()
			s.stats.Denials++
			s.mu.Unlock()
			return lease.Token{}, err
		}
		if err := s.tree.Update(id, func(r *lease.Record) error {
			r.GCL.Kind = grant.GCL.Kind
			r.GCL.Counter += grant.Units
			return consume(r)
		}); err != nil {
			return lease.Token{}, fmt.Errorf("sllocal: lease update after renewal: %w", err)
		}
	}
	if granted == 0 {
		s.mu.Lock()
		s.stats.Denials++
		s.mu.Unlock()
		return lease.Token{}, fmt.Errorf("%w: %q", ErrLeaseDenied, licenseID)
	}
	return s.mintToken(id, licenseID, granted), nil
}

// virtualNow maps the machine's cycle clock to a wall-clock instant for
// time-based lease accounting: virtual time advances as simulated work
// and SGX events are charged.
func (s *Service) virtualNow() time.Time {
	model := s.deps.Machine.Model()
	return time.Unix(0, model.CyclesToDuration(s.deps.Machine.Clock().Now()).Nanoseconds())
}

func (s *Service) mintToken(id lease.ID, licenseID string, grants int) lease.Token {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nonce++
	s.stats.TokensIssued += int64(grants)
	return lease.Token{
		LeaseID:        id,
		License:        licenseID,
		Grants:         grants,
		Nonce:          s.nonce,
		IssuedAtCycles: s.deps.Machine.Clock().Now(),
	}
}

// renewLocked fetches a sub-GCL from SL-Remote: network round trip plus
// the server-side validation of SL-Local (remote attestation, charged by
// InitClient/RenewLease paths in slremote), reported in stats.
func (s *Service) renewLocked(licenseID string) (slremote.Grant, error) {
	// Each renewal re-validates SL-Local with SL-Remote (step ❸ of the
	// workflow): one remote attestation on this machine's timeline.
	s.deps.Machine.ChargeRemoteAttestation()
	span := s.tracerLoad().Start("sllocal.renew")
	span.Annotate("license", licenseID)
	span.Annotate("slid", s.slid)
	start := time.Now()
	var grant slremote.Grant
	var err error
	if trm, ok := s.deps.Remote.(tracedRemote); ok {
		grant, err = trm.RenewLeaseSpan(span, s.slid, licenseID)
	} else {
		grant, err = s.deps.Remote.RenewLease(s.slid, licenseID)
	}
	span.End(err)
	if m := s.metrics.Load(); m != nil {
		m.renewLatency.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		s.stats.RenewalFailures++
		return slremote.Grant{}, fmt.Errorf("%w: %v", ErrLeaseDenied, err)
	}
	s.stats.Renewals++
	return grant, nil
}

// allocIDLocked hands out lease IDs with per-application spatial locality.
func (s *Service) allocIDLocked() lease.ID {
	for {
		if s.curBlk == nil || s.curBlk.Remaining() == 0 {
			alloc := leasetree.NewIDAllocator()
			// Fast-forward the allocator to the persisted high-water mark.
			var blk *leasetree.Block
			for i := uint32(0); i < s.nextBlk; i++ {
				blk = alloc.NextBlock()
			}
			s.curBlk = blk
			s.nextBlk++
		}
		if id, ok := s.curBlk.Next(); ok {
			return id
		}
		s.curBlk = nil
	}
}

// Shutdown performs the graceful exit of Section 5.6: commit the whole
// tree, escrow the root key with SL-Remote, seal the license directory,
// and persist the snapshot to untrusted state.
func (s *Service) Shutdown() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case stateNew:
		return ErrNotInitialized
	case stateStopped:
		return ErrStopped
	}
	snap, rootKey, err := s.tree.Shutdown()
	if err != nil {
		return fmt.Errorf("sllocal: committing tree: %w", err)
	}
	span := s.tracerLoad().Start("sllocal.escrow")
	span.Annotate("slid", s.slid)
	if trm, ok := s.deps.Remote.(tracedRemote); ok {
		err = trm.EscrowRootKeySpan(span, s.slid, rootKey)
	} else {
		err = s.deps.Remote.EscrowRootKey(s.slid, rootKey)
	}
	span.End(err)
	if err != nil {
		return fmt.Errorf("sllocal: escrowing root key: %w", err)
	}
	sealed, err := s.enclave.Seal(encodeDirectory(s.dir, s.nextBlk))
	if err != nil {
		return fmt.Errorf("sllocal: sealing directory: %w", err)
	}
	s.deps.State.SLID = s.slid
	s.deps.State.Snapshot = &snap
	s.deps.State.DirectorySealed = sealed
	s.deps.State.NextIDBlock = s.nextBlk
	s.enclave.Destroy()
	s.state = stateStopped
	return nil
}

// Crash simulates an abrupt termination: nothing is committed, nothing is
// escrowed, and SL-Remote will forfeit every lease this instance held at
// the next Init (the paper's pessimistic policy).
func (s *Service) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateRunning {
		return
	}
	if s.enclave != nil {
		s.enclave.Destroy()
	}
	s.state = stateStopped
	// The in-EPC tree is gone with the enclave; untrusted state keeps
	// whatever stale snapshot it had, which no key will ever validate.
}
