package slremote

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/obs/flight"
	"repro/internal/seccrypto"
	"repro/internal/store"
)

// This file is SL-Remote's durability layer. Every state mutation is
// written through a store.Logger *before* it is applied in memory
// (write-ahead discipline: a mutation the WAL never saw never happened),
// and RecoverServer rebuilds an identical Server from the newest snapshot
// plus the WAL tail. Two rules keep the scheme sound:
//
//   - events record *outcomes*, not requests: a renewal logs the units
//     Algorithm 1 granted, an init logs the SLID it assigned, so replay is
//     a pure fold over deterministic transitions;
//   - secret material is sealed before it reaches the log: escrowed
//     lease-tree root keys are AES-GCM-protected with the server's seal
//     key (seccrypto.ProtectWithKey), and snapshot images — which embed
//     those keys — are sealed whole. Plaintext key bytes never leave the
//     (simulated) enclave.

// WAL event opcodes.
const (
	opRegister = "register_license"
	opInterval = "set_interval"
	opRevoke   = "revoke"
	opInit     = "init"
	opProfile  = "set_profile"
	opEscrow   = "escrow"
	opCrash    = "crash"
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
	IntervalNS  int64   `json:"interval_ns,omitempty"`
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
func (s *Server) AttachPersistence(pc PersistConfig) error {
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
	img := s.imageLocked()
	plain, err := json.Marshal(img)
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
	s.flight.Load().Emit("slremote.wal_compaction",
		flight.KV{K: "compacted_records", V: strconv.Itoa(s.persist.appended)},
		flight.KV{K: "snapshot_bytes", V: strconv.Itoa(len(sealed))})
	s.persist.appended = 0
	return nil
}

// snapshotImage is the on-disk (sealed) full-state encoding.
type snapshotImage struct {
	Licenses map[string]licenseImage `json:"licenses"`
	Clients  map[string]clientImage  `json:"clients"`
	NextSLID int                     `json:"next_slid"`
	Stats    ServerStats             `json:"stats"`
}

type licenseImage struct {
	Kind       uint8   `json:"kind"`
	TotalGCL   int64   `json:"total_gcl"`
	IntervalNS int64   `json:"interval_ns"`
	Remaining  int64   `json:"remaining"`
	Tau        float64 `json:"tau"`
	Revoked    bool    `json:"revoked"`
	Lost       int64   `json:"lost"`
	Consumed   int64   `json:"consumed,omitempty"`
}

type clientImage struct {
	Health      float64          `json:"health"`
	Reliability float64          `json:"reliability"`
	Weight      float64          `json:"weight"`
	Escrow      []byte           `json:"escrow,omitempty"` // raw key; the whole image is sealed
	HasEscrow   bool             `json:"has_escrow"`
	Outstanding map[string]int64 `json:"outstanding,omitempty"`
	Crashed     bool             `json:"crashed"`
}

func (s *Server) imageLocked() snapshotImage {
	img := snapshotImage{
		Licenses: make(map[string]licenseImage, len(s.licenses)),
		Clients:  make(map[string]clientImage, len(s.clients)),
		NextSLID: s.nextSLID,
		Stats:    s.stats,
	}
	for id, lic := range s.licenses {
		img.Licenses[id] = licenseImage{
			Kind:       uint8(lic.Kind),
			TotalGCL:   lic.TotalGCL,
			IntervalNS: int64(lic.Interval),
			Remaining:  lic.Remaining,
			Tau:        lic.Tau,
			Revoked:    lic.Revoked,
			Lost:       lic.Lost,
			Consumed:   lic.Consumed,
		}
	}
	for slid, c := range s.clients {
		ci := clientImage{
			Health:      c.health,
			Reliability: c.reliability,
			Weight:      c.weight,
			HasEscrow:   c.hasEscrow,
			Crashed:     c.crashed,
		}
		if c.hasEscrow {
			ci.Escrow = c.escrow.Bytes()
		}
		if len(c.outstanding) > 0 {
			ci.Outstanding = make(map[string]int64, len(c.outstanding))
			for k, v := range c.outstanding {
				ci.Outstanding[k] = v
			}
		}
		img.Clients[slid] = ci
	}
	return img
}

// restoreImageLocked installs a decoded snapshot into an empty server.
func (s *Server) restoreImageLocked(img snapshotImage) error {
	for id, li := range img.Licenses {
		s.licenses[id] = &License{
			ID:        id,
			Kind:      lease.Kind(li.Kind),
			TotalGCL:  li.TotalGCL,
			Interval:  time.Duration(li.IntervalNS),
			Remaining: li.Remaining,
			Tau:       li.Tau,
			Revoked:   li.Revoked,
			Lost:      li.Lost,
			Consumed:  li.Consumed,
		}
	}
	for slid, ci := range img.Clients {
		c := &clientState{
			slid:        slid,
			health:      ci.Health,
			reliability: ci.Reliability,
			weight:      ci.Weight,
			hasEscrow:   ci.HasEscrow,
			crashed:     ci.Crashed,
			outstanding: make(map[string]int64, len(ci.Outstanding)),
		}
		for k, v := range ci.Outstanding {
			c.outstanding[k] = v
			if v > 0 {
				s.setHolderLocked(k, c)
			}
		}
		if ci.HasEscrow {
			key, err := seccrypto.KeyFromBytes(ci.Escrow)
			if err != nil {
				return fmt.Errorf("slremote: snapshot escrow for %q: %w", slid, err)
			}
			c.escrow = key
		}
		s.clients[slid] = c
	}
	s.nextSLID = img.NextSLID
	s.stats = img.Stats
	return nil
}

// RecoverServer rebuilds an SL-Remote from what store.Open recovered —
// unseal the snapshot image, fold the WAL tail over it — and attaches
// persistence so new mutations keep flowing into the same log. With an
// empty Recovered it is NewServer + AttachPersistence. The Config must
// match the one the state was written under (it is policy, not state, and
// lives in flags).
func RecoverServer(cfg Config, service *attest.Service, rec *store.Recovered, pc PersistConfig) (*Server, error) {
	if err := pc.validate(); err != nil {
		return nil, err
	}
	s, err := NewServer(cfg, service)
	if err != nil {
		return nil, err
	}
	s.persist = &persister{sealKey: pc.SealKey} // replay needs the seal key, but must not re-log
	if rec != nil {
		if rec.Snapshot != nil {
			plain, err := seccrypto.Validate(rec.Snapshot, pc.SealKey)
			if err != nil {
				return nil, fmt.Errorf("slremote: unsealing snapshot (wrong seal key, or tampered image): %w", err)
			}
			var img snapshotImage
			if err := json.Unmarshal(plain, &img); err != nil {
				return nil, fmt.Errorf("slremote: decoding snapshot: %w", err)
			}
			if err := s.restoreImageLocked(img); err != nil {
				return nil, err
			}
		}
		for i, raw := range rec.Records {
			var ev event
			if err := json.Unmarshal(raw, &ev); err != nil {
				return nil, fmt.Errorf("slremote: decoding WAL record %d: %w", i, err)
			}
			if err := s.applyEventLocked(ev); err != nil { //sllint:ignore walorder replay folds records already durable in the WAL; logging them again would double-append
				return nil, fmt.Errorf("slremote: replaying WAL record %d (%s): %w", i, ev.Op, err)
			}
		}
	}
	s.persist = &persister{
		log:           pc.Log,
		snap:          pc.Snap,
		sealKey:       pc.SealKey,
		snapshotEvery: pc.SnapshotEvery,
	}
	if rec != nil {
		// A long replayed tail counts toward the next compaction.
		s.persist.appended = len(rec.Records)
	}
	return s, nil
}

// applyEventLocked folds one WAL event into the state. Replay tolerates
// nothing: an event that does not fit the state (unknown license, unknown
// client) means the log and the snapshot disagree, and recovery must fail
// loudly rather than rebuild a subtly different server.
func (s *Server) applyEventLocked(ev event) error {
	switch ev.Op {
	case opRegister:
		if _, dup := s.licenses[ev.License]; dup {
			return fmt.Errorf("license %q already exists", ev.License)
		}
		s.applyRegisterLocked(ev.License, lease.Kind(ev.Kind), ev.TotalGCL)
	case opInterval:
		lic, ok := s.licenses[ev.License]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownLicense, ev.License)
		}
		lic.Interval = time.Duration(ev.IntervalNS)
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
		raw, err := seccrypto.Validate(ev.SealedKey, s.persist.sealKey)
		if err != nil {
			return fmt.Errorf("unsealing escrowed key: %w", err)
		}
		key, err := seccrypto.KeyFromBytes(raw)
		if err != nil {
			return err
		}
		s.applyEscrowLocked(c, key)
	case opCrash:
		c, ok := s.clients[ev.SLID]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownClient, ev.SLID)
		}
		s.applyCrashLocked(c)
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

// State is a deep-copied, exported view of the whole server — what the
// restart-cycle tests compare with reflect.DeepEqual across a kill and a
// recovery.
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
	// Escrow is the escrowed root key's raw bytes (in-memory view; on
	// disk it only ever exists sealed). Nil when HasEscrow is false.
	Escrow      []byte
	HasEscrow   bool
	Outstanding map[string]int64
	Crashed     bool
}

// ExportState deep-copies the server's full state.
func (s *Server) ExportState() State {
	s.mu.Lock()
	defer s.mu.Unlock()
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
			Crashed:     c.crashed,
			Outstanding: make(map[string]int64, len(c.outstanding)),
		}
		if c.hasEscrow {
			cs.Escrow = c.escrow.Bytes()
		}
		for k, v := range c.outstanding {
			cs.Outstanding[k] = v
		}
		st.Clients[slid] = cs
	}
	return st
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
