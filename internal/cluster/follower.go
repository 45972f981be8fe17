package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/attest"
	"repro/internal/obs/fleet"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/slremote"
	"repro/internal/store"
	"repro/internal/wire"
)

// DefaultPullInterval paces a caught-up follower's next replication pull.
const DefaultPullInterval = 25 * time.Millisecond

// FollowerOptions configures one shard's warm standby.
type FollowerOptions struct {
	// Shard is the hash range this follower stands by for.
	Shard int
	// LeaderAddr is the leader it tails.
	LeaderAddr string
	// SealKey must match the leader's (shipped snapshots unseal with it).
	SealKey seccrypto.Key
	// Config and Service are carried to the promoted server.
	Config  slremote.Config
	Service *attest.Service
	// Channel is the wire channel for the replication connection. The
	// stream rides the same attested transport as client traffic: shard
	// state never crosses the network outside RA-TLS unless the operator
	// explicitly chose plaintext.
	Channel *ratls.Config
	// PullInterval paces pulls once caught up (default
	// DefaultPullInterval).
	PullInterval time.Duration
	// Metrics records replication progress (nil: none).
	Metrics *Metrics
	// Obs is the follower's own observability bundle (nil: unobserved).
	// Replication progress is mirrored into its registry alongside the
	// cluster-wide Metrics, and failover events land in its event ring.
	// On Promote the bundle follows the process: the new
	// leader's counters continue where the follower's left off.
	Obs *fleet.NodeObs
}

// Follower tails a shard leader's WAL over the wire and folds every
// durable record into an slremote.Replica, keeping a promotable warm copy
// of the shard's state. The pull loop runs in the background until Drain.
type Follower struct {
	opts   FollowerOptions
	client *wire.Client
	obsm   *Metrics // per-node mirror of replication metrics (nil: none)

	mu      sync.Mutex
	replica *slremote.Replica
	gen     uint64
	off     int64

	stop chan struct{}
	done chan struct{}
}

// StartFollower dials the leader and starts the pull loop.
func StartFollower(opts FollowerOptions) (*Follower, error) {
	if opts.PullInterval <= 0 {
		opts.PullInterval = DefaultPullInterval
	}
	replica, err := slremote.NewReplica(opts.Config, opts.Service, opts.SealKey)
	if err != nil {
		return nil, err
	}
	client, err := wire.DialPolicy(opts.LeaderAddr, wire.DefaultTimeout, opts.Channel,
		wire.DefaultRetryPolicy(int64(opts.Shard)+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d follower dialing leader: %w", opts.Shard, err)
	}
	f := &Follower{
		opts:    opts,
		client:  client,
		replica: replica,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if opts.Obs != nil {
		f.obsm = NewMetrics(opts.Obs.Registry)
		client.ExposeMetrics(opts.Obs.Registry, opts.Obs.Tracer)
	}
	go f.loop()
	return f, nil
}

func (f *Follower) loop() {
	defer close(f.done)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		caught, err := f.pullOnce()
		if err != nil || caught {
			// Errors here are transient from the loop's point of view
			// (the leader may be mid-death; Drain surfaces what matters).
			// Either way, pause before the next pull.
			select {
			case <-f.stop:
				return
			case <-time.After(f.opts.PullInterval):
			}
		}
	}
}

// pullOnce fetches and applies one replication batch, advancing the
// follower's WAL position.
func (f *Follower) pullOnce() (caught bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	batch, err := f.client.ReplPull(f.gen, f.off, 0)
	if err != nil {
		return false, err
	}
	f.opts.Metrics.pull()
	f.obsm.pull()
	n, err := f.replica.ApplyBatch(batch)
	f.opts.Metrics.appliedRecords(f.opts.Shard, n)
	f.obsm.appliedRecords(f.opts.Shard, n)
	if err != nil {
		return false, fmt.Errorf("cluster: shard %d follower apply: %w", f.opts.Shard, err)
	}
	f.gen, f.off = batch.Gen, batch.NextOffset
	f.opts.Metrics.setLag(f.opts.Shard, batch.Tip-batch.NextOffset)
	f.obsm.setLag(f.opts.Shard, batch.Tip-batch.NextOffset)
	return batch.Caught(), nil
}

// Drain stops the background loop and pulls until the follower is caught
// up with the leader's durable tip. A leader that died mid-drain ends the
// catch-up early: the follower then holds exactly the prefix the leader
// managed to ship, which is still a legal (conservation-preserving) state.
func (f *Follower) Drain() error {
	f.stopLoop()
	flightRec(f.opts.Obs).Mark("failover.drain", "shard", shardLabel(f.opts.Shard), "leader", f.opts.LeaderAddr)
	for {
		caught, err := f.pullOnce()
		if err != nil {
			if errors.Is(err, wire.ErrRemote) {
				return fmt.Errorf("cluster: shard %d drain: %w", f.opts.Shard, err)
			}
			// Connection-level failure: the leader is gone; whatever was
			// pulled so far is the final state.
			return nil
		}
		if caught {
			return nil
		}
	}
}

// Close stops the pull loop and closes the replication connection
// without promoting; the replica's state is discarded.
func (f *Follower) Close() error {
	f.stopLoop()
	return f.client.Close()
}

// stopLoop idempotently stops the background pull loop and waits for it.
func (f *Follower) stopLoop() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	<-f.done
}

// Applied reports the records folded since the last rebase.
func (f *Follower) Applied() int64 { return f.replica.Applied() }

// Obs is the follower's observability bundle (nil when unobserved).
func (f *Follower) Obs() *fleet.NodeObs { return f.opts.Obs }

// State deep-copies the follower's current state.
func (f *Follower) State() slremote.State {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.replica.State()
}

// Promote turns the drained follower into the shard's serving leader: the
// replica attaches to a fresh store in opts.Dir (snapshotting the
// inherited state immediately), the node starts serving, and the
// directory is updated so every gate and client routes to it under the
// new epoch. The caller must Drain first.
func (f *Follower) Promote(opts NodeOptions) (*Node, error) {
	f.stopLoop()
	_ = f.client.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	if opts.Obs == nil {
		// The bundle follows the process: a promoted follower keeps its
		// registry and its span and event rings, so counters and the
		// event timeline stay continuous across the role change.
		opts.Obs = f.opts.Obs
	}
	n, err := bootNode(opts, func(st *store.Store, rec *store.Recovered) (*slremote.Server, error) {
		if !rec.Empty() {
			return nil, fmt.Errorf("cluster: shard %d promote: directory %s already holds state", opts.Shard, opts.Dir)
		}
		return f.replica.Promote(opts.persistence(st))
	})
	if err != nil {
		return nil, err
	}
	flightRec(opts.Obs).Mark("failover.promote", "shard", shardLabel(opts.Shard), "addr", n.addr,
		"applied", strconv.FormatInt(f.replica.Applied(), 10))
	epoch := opts.Directory.SetLeader(opts.Shard, n.addr)
	f.opts.Metrics.setEpoch(opts.Shard, epoch)
	f.opts.Metrics.failover()
	f.obsm.setEpoch(opts.Shard, epoch)
	f.obsm.failover()
	flightRec(opts.Obs).Mark("cluster.epoch_bump", "shard", shardLabel(opts.Shard), "epoch", strconv.FormatUint(epoch, 10))
	return n, nil
}
