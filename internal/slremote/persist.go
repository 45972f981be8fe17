package slremote

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"sort"
	"strconv"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/seccrypto"
	"repro/internal/store"
)

// This file is SL-Remote's durability layer. Every state mutation is
// written through a store.Logger *before* it is applied in memory
// (write-ahead discipline: a mutation the WAL never saw never happened),
// and RecoverServer rebuilds an identical Server by folding the newest
// snapshot plus the WAL tail through applyBatchLocked, the fold a
// replica applies to a leader's stream. Two rules keep the scheme sound:
//
//   - events record *outcomes*, not requests: a renewal logs the units
//     Algorithm 1 granted, an init logs the SLID it assigned, so replay is
//     a pure fold over deterministic transitions;
//   - secret material is sealed before it reaches the log: escrowed
//     lease-tree root keys are AES-GCM-protected with the server's seal
//     key (seccrypto.ProtectWithKey), and the snapshot image (State) — which
//     embeds those keys — is sealed whole. Plaintext key bytes never leave the
//     (simulated) enclave.

// WAL event opcodes.
const (
	opRegister = "register_license"
	opRevoke   = "revoke"
	opInit     = "init" // a re-init without escrow is also the crash record
	opProfile  = "set_profile"
	opEscrow   = "escrow"
	opRenew    = "renew" // one coalesced RenewLease batch (of one or more grants)
	opConsume  = "consume"
)

// event is one WAL record: a state mutation with its outcome. Fields are
// a union over all opcodes; unused ones are omitted from the JSON.
type event struct {
	Op          string  `json:"op"`
	License     string  `json:"license,omitempty"`
	Kind        uint8   `json:"kind,omitempty"`
	TotalGCL    int64   `json:"total_gcl,omitempty"`
	SLID        string  `json:"slid,omitempty"`
	NextSLID    int     `json:"next_slid,omitempty"`
	Units       int64   `json:"units,omitempty"`
	Health      float64 `json:"health,omitempty"`
	Reliability float64 `json:"reliability,omitempty"`
	Weight      float64 `json:"weight,omitempty"`
	SealedKey   []byte  `json:"sealed_key,omitempty"`
	// Grants carries an opRenew record's grants, in batch order.
	Grants []renewGrant `json:"grants,omitempty"`
}

// renewGrant is one grant inside an opRenew record.
type renewGrant struct {
	SLID    string `json:"slid"`
	License string `json:"license"`
	Units   int64  `json:"units"`
}

// PersistConfig wires a Server to a durability backend.
type PersistConfig struct {
	// Log receives one record per state mutation, before the mutation is
	// applied.
	Log store.Logger
	// Snap receives full sealed state images; may equal Log (a
	// *store.Store implements both).
	Snap store.Snapshotter
	// SealKey seals escrowed root keys inside WAL records and whole
	// snapshot images. In a real deployment it would be an SGX sealing
	// key (MRSIGNER-derived); here it is provisioned by the operator.
	SealKey seccrypto.Key
	// SnapshotEvery takes a snapshot (and compacts the WAL) after this
	// many logged records; 0 means only explicit SnapshotNow calls.
	SnapshotEvery int
}

func (pc PersistConfig) validate() error {
	if pc.Log == nil {
		return errors.New("slremote: persistence without a Logger")
	}
	if pc.SealKey.IsZero() {
		return errors.New("slremote: persistence without a seal key")
	}
	if pc.SnapshotEvery < 0 {
		return fmt.Errorf("slremote: negative SnapshotEvery %d", pc.SnapshotEvery)
	}
	return nil
}

// persister is the Server-side persistence state, guarded by Server.mu.
type persister struct {
	log           store.Logger
	snap          store.Snapshotter
	sealKey       seccrypto.Key
	snapshotEvery int
	appended      int // records logged since the last snapshot
}

// AttachPersistence starts write-ahead logging of every mutation. Call it
// on a fresh server before any state exists; to resume from a state
// directory use RecoverServer, which attaches after replay.
func (s *Server) AttachPersistence(pc PersistConfig) error { return s.attach(pc, 0) }

// attach is the one place a Server gains persistence: AttachPersistence,
// RecoverServer and Replica.Promote all end here. appended counts records
// already in the log toward the next compaction.
func (s *Server) attach(pc PersistConfig, appended int) error {
	if err := pc.validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.persist = &persister{
		log:           pc.Log,
		snap:          pc.Snap,
		sealKey:       pc.SealKey,
		snapshotEvery: pc.SnapshotEvery,
		appended:      appended,
	}
	return nil
}

// logLocked write-ahead-logs one event. A nil persister makes it free; an
// append failure aborts the mutation (the caller must not apply it).
func (s *Server) logLocked(ev event) error {
	if s.persist == nil {
		return nil
	}
	rec, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("slremote: encoding %s event: %w", ev.Op, err)
	}
	if err := s.persist.log.Append(rec); err != nil {
		return fmt.Errorf("slremote: logging %s event: %w", ev.Op, err)
	}
	s.persist.appended++
	return nil
}

// maybeSnapshotLocked compacts the WAL once enough records accumulated.
// Failure is not fatal to the triggering mutation (which is already
// durable in the WAL); the counter keeps its value so the next mutation
// retries.
func (s *Server) maybeSnapshotLocked() {
	p := s.persist
	if p == nil || p.snap == nil || p.snapshotEvery <= 0 || p.appended < p.snapshotEvery {
		return
	}
	_ = s.snapshotLocked()
}

// SnapshotNow serializes the full server state, seals it, and hands it to
// the Snapshotter — the graceful-shutdown path of cmd/sl-remote, and the
// periodic compaction point when SnapshotEvery is set.
func (s *Server) SnapshotNow() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist == nil || s.persist.snap == nil {
		return errors.New("slremote: no snapshotter attached")
	}
	return s.snapshotLocked()
}

func (s *Server) snapshotLocked() error {
	plain, err := json.Marshal(s.exportLocked())
	if err != nil {
		return fmt.Errorf("slremote: encoding snapshot: %w", err)
	}
	sealed, err := seccrypto.ProtectWithKey(plain, s.persist.sealKey, nil)
	if err != nil {
		return fmt.Errorf("slremote: sealing snapshot: %w", err)
	}
	if err := s.persist.snap.Snapshot(sealed); err != nil {
		return fmt.Errorf("slremote: writing snapshot: %w", err)
	}
	s.flight.Load().Mark("slremote.wal_compaction",
		"compacted_records", strconv.Itoa(s.persist.appended), "snapshot_bytes", strconv.Itoa(len(sealed)))
	s.persist.appended = 0
	return nil
}

// RecoverServer rebuilds an SL-Remote from what store.Open recovered and
// attaches persistence so new mutations keep flowing into the same log.
// Recovery is replication from the node's own disk: the snapshot and the
// WAL tail fold into a Replica as one rebasing store.TailBatch, exactly as
// a follower folds the batches a leader ships. With an empty Recovered it
// is NewServer + AttachPersistence. The Config must match the one the
// state was written under (it is policy, not state, and lives in flags).
func RecoverServer(cfg Config, service *attest.Service, rec *store.Recovered, pc PersistConfig) (*Server, error) {
	r, err := NewReplica(cfg, service, pc.SealKey)
	if err != nil {
		return nil, err
	}
	if _, err := r.ApplyBatch(store.TailBatch{
		Rebase: true, Gen: rec.Generation, Snapshot: rec.Snapshot, Records: rec.Records,
	}); err != nil {
		return nil, err
	}
	// A long replayed tail counts toward the next compaction.
	if err := r.s.attach(pc, len(rec.Records)); err != nil {
		return nil, err
	}
	return r.s, nil
}

// applyBatchLocked is the one fold over the WAL, shared by crash recovery
// and replication: on a rebase the sealed snapshot image (nil: the empty
// state) replaces the whole state, then every record applies, oldest
// first. sealKey unseals the image and the escrow records. It returns the
// number of records applied.
func (s *Server) applyBatchLocked(b store.TailBatch, sealKey seccrypto.Key) (int, error) {
	if b.Rebase {
		var st State
		if b.Snapshot != nil {
			plain, err := seccrypto.Validate(b.Snapshot, sealKey)
			if err != nil {
				return 0, fmt.Errorf("slremote: unsealing snapshot (wrong seal key, or tampered image): %w", err)
			}
			// Strict: a key State does not have (an older image format's
			// snake_case names) fails loudly instead of being dropped.
			dec := json.NewDecoder(bytes.NewReader(plain))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&st); err != nil {
				return 0, fmt.Errorf("slremote: decoding snapshot: %w", err)
			}
		}
		if err := s.restoreLocked(st); err != nil {
			return 0, err
		}
	}
	for i, raw := range b.Records {
		var ev event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return i, fmt.Errorf("slremote: decoding WAL record %d: %w", i, err)
		}
		if err := s.applyEventLocked(ev, sealKey); err != nil {
			return i, fmt.Errorf("slremote: applying WAL record %d (%s): %w", i, ev.Op, err)
		}
	}
	return len(b.Records), nil
}

// applyEventLocked folds one WAL event into the state. Replay tolerates
// nothing: an event that does not fit the state (unknown license, unknown
// client) means the log and the snapshot disagree, and recovery must fail
// loudly rather than rebuild a subtly different server.
func (s *Server) applyEventLocked(ev event, sealKey seccrypto.Key) error {
	switch ev.Op {
	case opRegister:
		if _, dup := s.licenses[ev.License]; dup {
			return fmt.Errorf("license %q already exists", ev.License)
		}
		s.applyRegisterLocked(ev.License, lease.Kind(ev.Kind), ev.TotalGCL)
	case opRevoke:
		lic, ok := s.licenses[ev.License]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownLicense, ev.License)
		}
		s.applyRevokeLocked(lic)
	case opInit:
		s.applyInitLocked(ev.SLID, ev.NextSLID)
	case opProfile:
		c, ok := s.clients[ev.SLID]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownClient, ev.SLID)
		}
		applyProfile(c, ev.Health, ev.Reliability, ev.Weight)
	case opEscrow:
		c, ok := s.clients[ev.SLID]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownClient, ev.SLID)
		}
		raw, err := seccrypto.Validate(ev.SealedKey, sealKey)
		if err != nil {
			return fmt.Errorf("unsealing escrowed key: %w", err)
		}
		key, err := seccrypto.KeyFromBytes(raw)
		if err != nil {
			return err
		}
		s.applyEscrowLocked(c, key)
	case opRenew:
		if len(ev.Grants) == 0 {
			return errors.New("renew record carries no grants")
		}
		for _, g := range ev.Grants {
			c, ok := s.clients[g.SLID]
			if !ok {
				return fmt.Errorf("%w: %q", ErrUnknownClient, g.SLID)
			}
			lic, ok := s.licenses[g.License]
			if !ok {
				return fmt.Errorf("%w: %q", ErrUnknownLicense, g.License)
			}
			s.applyRenewLocked(c, lic, g.Units)
		}
	case opConsume:
		c, ok := s.clients[ev.SLID]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownClient, ev.SLID)
		}
		s.applyConsumeLocked(c, ev.License, ev.Units)
	default:
		return fmt.Errorf("unknown WAL op %q", ev.Op)
	}
	return nil
}

// State is the whole server state, deep-copied: the snapshot image
// (sealed whole before it reaches disk), and what the restart-cycle tests
// compare with reflect.DeepEqual across a kill and a recovery.
type State struct {
	Licenses map[string]License
	Clients  map[string]ClientState
	NextSLID int
	Stats    ServerStats
}

// ClientState mirrors one SL-Local's server-side record.
type ClientState struct {
	SLID        string
	Health      float64
	Reliability float64
	Weight      float64
	// Escrow is the escrowed root key's raw bytes; on disk it only exists
	// inside the sealed snapshot image. Nil when HasEscrow is false.
	Escrow      []byte
	HasEscrow   bool
	Outstanding map[string]int64
}

// ExportState deep-copies the server's full state.
func (s *Server) ExportState() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exportLocked()
}

func (s *Server) exportLocked() State {
	st := State{
		Licenses: make(map[string]License, len(s.licenses)),
		Clients:  make(map[string]ClientState, len(s.clients)),
		NextSLID: s.nextSLID,
		Stats:    s.stats,
	}
	for id, lic := range s.licenses {
		st.Licenses[id] = *lic
	}
	for slid, c := range s.clients {
		cs := ClientState{
			SLID:        slid,
			Health:      c.health,
			Reliability: c.reliability,
			Weight:      c.weight,
			HasEscrow:   c.hasEscrow,
			Outstanding: maps.Clone(c.outstanding),
		}
		if c.hasEscrow {
			cs.Escrow = c.escrow.Bytes()
		}
		st.Clients[slid] = cs
	}
	return st
}

// restoreLocked replaces the whole state with st — the inverse of
// exportLocked, and the one way a snapshot image becomes a server.
func (s *Server) restoreLocked(st State) error {
	s.licenses = make(map[string]*License, len(st.Licenses))
	s.clients = make(map[string]*clientState, len(st.Clients))
	s.holders = make(map[string]map[string]*clientState)
	s.nextSLID, s.stats = st.NextSLID, st.Stats
	for id, lic := range st.Licenses {
		s.licenses[id] = &lic
	}
	for slid, cs := range st.Clients {
		c := &clientState{
			slid:        slid,
			health:      cs.Health,
			reliability: cs.Reliability,
			weight:      cs.Weight,
			hasEscrow:   cs.HasEscrow,
			outstanding: make(map[string]int64, len(cs.Outstanding)),
		}
		for k, v := range cs.Outstanding {
			c.outstanding[k] = v
			if v > 0 {
				s.setHolderLocked(k, c)
			}
		}
		if cs.HasEscrow {
			key, err := seccrypto.KeyFromBytes(cs.Escrow)
			if err != nil {
				return fmt.Errorf("slremote: snapshot escrow for %q: %w", slid, err)
			}
			c.escrow = key
		}
		s.clients[slid] = c
	}
	return nil
}

// LicenseIDs returns the registered license IDs, sorted — the boot path
// uses it to reconcile -license flags against recovered state.
func (s *Server) LicenseIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.licenses))
	for id := range s.licenses {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
