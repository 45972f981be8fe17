package slremote

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/attest"
	"repro/internal/seccrypto"
	"repro/internal/store"
)

// Replica is a warm-standby SL-Remote built by folding a leader's shipped
// WAL stream through applyBatchLocked — the fold RecoverServer runs over a
// node's own disk — so a follower's state is, at every instant, exactly
// the state a crash-recovery of the leader would reach from the records
// shipped so far. It serves no clients and logs nothing; Promote turns it
// into a serving Server when the leader dies.
type Replica struct {
	s       *Server
	sealKey seccrypto.Key
	applied atomic.Int64
	// promoted latches Promote: once the underlying server is serving (and
	// write-ahead-logging to its own store), folding more of the dead
	// leader's records into it would corrupt the new incarnation.
	promoted bool
}

// NewReplica builds an empty replica. The seal key must match the leader's
// (shipped snapshot images and escrow records are sealed with it); the
// attestation service is carried to the promoted server, where it guards
// InitClient exactly as on any leader.
func NewReplica(cfg Config, service *attest.Service, sealKey seccrypto.Key) (*Replica, error) {
	if sealKey.IsZero() {
		return nil, errors.New("slremote: replica without a seal key")
	}
	s, err := NewServer(cfg, service)
	if err != nil {
		return nil, err
	}
	return &Replica{s: s, sealKey: sealKey}, nil
}

// ApplyBatch folds one store.TailBatch: on a rebase the sealed snapshot
// image (nil: the empty state of generation 0) replaces the whole state,
// then every record applies, oldest first. Replay tolerates nothing: a
// record that does not fit the state means the follower and the leader
// have diverged, and the replica must fail loudly rather than promote a
// subtly different server. It returns the number of records applied.
func (r *Replica) ApplyBatch(b store.TailBatch) (int, error) {
	if r.promoted {
		return 0, errors.New("slremote: replica already promoted")
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	n, err := r.s.applyBatchLocked(b, r.sealKey) //sllint:ignore walorder every record is already durable in the WAL it was read from (the leader's, or this node's own on recovery); the fold applies outcomes and must not log them again
	r.applied.Add(int64(n))
	return n, err
}

// Applied returns the number of WAL records folded so far — the
// follower's replication progress.
func (r *Replica) Applied() int64 { return r.applied.Load() }

// State deep-copies the replica's current state, for conservation checks
// and replication-lag tests.
func (r *Replica) State() State { return r.s.ExportState() }

// Promote turns the replica into a serving Server: persistence attaches
// (the follower's own, fresh store), and when a Snapshotter is wired the
// inherited state is immediately compacted into a durable snapshot, so the
// new incarnation survives its own crash from the first request on. The
// caller must have stopped feeding the replica first; every later
// ApplyBatch fails.
func (r *Replica) Promote(pc PersistConfig) (*Server, error) {
	if r.promoted {
		return nil, errors.New("slremote: replica already promoted")
	}
	if err := r.s.attach(pc, 0); err != nil {
		return nil, err
	}
	r.promoted = true
	if pc.Snap != nil {
		if err := r.s.SnapshotNow(); err != nil {
			return nil, fmt.Errorf("slremote: snapshotting promoted state: %w", err)
		}
	}
	return r.s, nil
}
