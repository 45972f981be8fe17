package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/attest"
	"repro/internal/audit"
	"repro/internal/chaos"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/slremote"
	"repro/internal/store"
)

// Options configures a whole cluster.
type Options struct {
	// Shards is the number of hash ranges (and leader servers).
	Shards int
	// Dir is the root state directory; each shard incarnation gets a
	// subdirectory.
	Dir string
	// SealKey seals snapshots, escrow, and audit chains cluster-wide.
	SealKey seccrypto.Key
	// Config is the Algorithm 1 parameter set (zero value: defaults).
	Config slremote.Config
	// Service gates client attestation (nil: open).
	Service *attest.Service
	// NewChannel mints a wire channel config per endpoint (each node and
	// follower connection needs its own). Nil defaults every channel to
	// ratls.Insecure(); production wiring passes ratls.NewProvisioned
	// closures.
	NewChannel func(role string) (*ratls.Config, error)
	// SyncMode is every store's WAL durability mode.
	SyncMode store.SyncMode
	// SnapshotEvery compacts each leader's WAL after this many records.
	SnapshotEvery int
	// PullInterval paces follower pulls (0: DefaultPullInterval).
	PullInterval time.Duration
	// Audit attaches a tamper-evident audit chain per shard.
	Audit bool
	// Registry receives the cluster_* metrics (nil: none).
	Registry *obs.Registry
	// Observe gives every node (leader incarnations and followers) its
	// own NodeObs bundle — a private registry, tracer, and flight
	// recorder served on a loopback HTTP endpoint — so a fleet
	// aggregator can scrape the cluster like a real multi-process
	// deployment. Dead nodes keep their (closed) endpoints listed in
	// ObsTargets: the aggregator's scrape errors and staleness metrics
	// are part of the failover story, not noise.
	Observe bool
	// TraceBuffer sizes each observed node's span ring (0: obs default).
	TraceBuffer int
	// Logf receives server logs (nil: silent).
	Logf func(string, ...any)
}

// shardState is one shard's moving parts: the serving leader, its warm
// follower, the shard-lifetime audit chain, and an incarnation counter
// naming each new leader's state directory.
type shardState struct {
	leader       *Node
	follower     *Follower
	audit        *audit.Log
	incarnation  int
	fIncarnation int // follower bundle naming counter
}

// Cluster is a sharded, WAL-replicated SL-Remote deployment: N leader
// servers splitting the license hash space, each shadowed by a follower
// tailing its WAL, routed by a shared directory.
type Cluster struct {
	opts    Options
	ring    *Ring
	dir     *Directory
	metrics *Metrics

	mu       sync.Mutex
	shards   []*shardState
	declared map[string]int64
	licCount []int // declared licenses per shard

	obsMu   sync.Mutex
	targets []*NodeObs // every bundle ever created, dead nodes included
}

// New stands the cluster up: a leader per shard (registered in the
// directory at epoch 1) and a follower tailing each.
func New(opts Options) (*Cluster, error) {
	if opts.SealKey.IsZero() {
		return nil, fmt.Errorf("cluster: a seal key is required (snapshots ship between nodes sealed)")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("cluster: a state directory is required")
	}
	if opts.Config == (slremote.Config{}) {
		opts.Config = slremote.DefaultConfig()
	}
	if opts.NewChannel == nil {
		opts.NewChannel = func(string) (*ratls.Config, error) { return ratls.Insecure(), nil }
	}
	ring, err := NewRing(opts.Shards, 0)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		opts:     opts,
		ring:     ring,
		dir:      NewDirectory(ring),
		metrics:  NewMetrics(opts.Registry),
		shards:   make([]*shardState, opts.Shards),
		declared: make(map[string]int64),
		licCount: make([]int, opts.Shards),
	}
	for shard := 0; shard < opts.Shards; shard++ {
		s := &shardState{}
		c.shards[shard] = s
		if opts.Audit {
			path := filepath.Join(opts.Dir, fmt.Sprintf("shard-%d-audit.log", shard))
			s.audit, err = audit.Open(path, opts.SealKey)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: shard %d audit: %w", shard, err)
			}
		}
		node, err := c.startLeader(s, shard)
		if err != nil {
			c.Close()
			return nil, err
		}
		s.leader = node
		epoch := c.dir.SetLeader(shard, node.Addr())
		c.metrics.setEpoch(shard, epoch)
		s.follower, err = c.startFollower(s, shard, node.Addr())
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// newNodeObs mints and serves an observability bundle named name, or
// returns nil when Observe is off. Every bundle is remembered for
// ObsTargets — including ones whose node later dies.
func (c *Cluster) newNodeObs(name string) (*NodeObs, error) {
	if !c.opts.Observe {
		return nil, nil
	}
	o := NewNodeObs(name, c.opts.TraceBuffer)
	if err := o.Serve("127.0.0.1:0", obs.HandlerOptions{}); err != nil {
		return nil, fmt.Errorf("cluster: obs endpoint for %s: %w", name, err)
	}
	c.obsMu.Lock()
	c.targets = append(c.targets, o)
	c.obsMu.Unlock()
	return o, nil
}

// ObsTargets returns every observability bundle the cluster has created,
// in creation order: leader incarnations as shard<i>-n<k>, followers as
// shard<i>-f<k>. Dead nodes stay listed with closed endpoints — a fleet
// aggregator scraping the list sees their staleness climb, which is the
// observable shape of a failover.
func (c *Cluster) ObsTargets() []*NodeObs {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	out := make([]*NodeObs, len(c.targets))
	copy(out, c.targets)
	return out
}

// startLeader starts shard's first leader incarnation.
func (c *Cluster) startLeader(s *shardState, shard int) (*Node, error) {
	opts, err := c.nextLeader(s, shard)
	if err != nil {
		return nil, err
	}
	if opts.Obs, err = c.newNodeObs(fmt.Sprintf("shard%d-n%d", shard, s.incarnation-1)); err != nil {
		return nil, err
	}
	return StartNode(opts)
}

// nextLeader prepares shard's next leader incarnation, first boot and
// failover alike: a fresh state directory (a promoted follower never
// writes into its dead leader's files), a channel of its own, and the
// cluster-wide settings every incarnation shares.
func (c *Cluster) nextLeader(s *shardState, shard int) (NodeOptions, error) {
	dir := filepath.Join(c.opts.Dir, fmt.Sprintf("shard-%d-n%d", shard, s.incarnation))
	s.incarnation++
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return NodeOptions{}, fmt.Errorf("cluster: shard %d state dir: %w", shard, err)
	}
	ch, err := c.opts.NewChannel(fmt.Sprintf("shard-%d-leader", shard))
	if err != nil {
		return NodeOptions{}, err
	}
	return NodeOptions{
		Shard:         shard,
		Dir:           dir,
		SealKey:       c.opts.SealKey,
		Config:        c.opts.Config,
		Service:       c.opts.Service,
		Channel:       ch,
		Directory:     c.dir,
		Audit:         s.audit,
		SyncMode:      c.opts.SyncMode,
		SnapshotEvery: c.opts.SnapshotEvery,
		Logf:          c.opts.Logf,
	}, nil
}

func (c *Cluster) startFollower(s *shardState, shard int, leaderAddr string) (*Follower, error) {
	ch, err := c.opts.NewChannel(fmt.Sprintf("shard-%d-follower", shard))
	if err != nil {
		return nil, err
	}
	o, err := c.newNodeObs(fmt.Sprintf("shard%d-f%d", shard, s.fIncarnation))
	if err != nil {
		return nil, err
	}
	s.fIncarnation++
	return StartFollower(FollowerOptions{
		Shard:        shard,
		LeaderAddr:   leaderAddr,
		SealKey:      c.opts.SealKey,
		Config:       c.opts.Config,
		Service:      c.opts.Service,
		Channel:      ch,
		PullInterval: c.opts.PullInterval,
		Metrics:      c.metrics,
		Obs:          o,
	})
}

// Directory returns the routing directory.
func (c *Cluster) Directory() *Directory { return c.dir }

// Route maps a license ID to its owning shard.
func (c *Cluster) Route(licenseID string) int { return c.ring.Shard(licenseID) }

// Leader returns shard's current serving node.
func (c *Cluster) Leader(shard int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shards[shard].leader
}

// LeaderFor returns the serving node owning licenseID.
func (c *Cluster) LeaderFor(licenseID string) *Node {
	return c.Leader(c.Route(licenseID))
}

// Follower returns shard's current warm standby.
func (c *Cluster) Follower(shard int) *Follower {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shards[shard].follower
}

// RegisterLicense registers the license on its owning shard and records
// the declared budget for cluster-wide conservation checks.
func (c *Cluster) RegisterLicense(id string, kind lease.Kind, totalGCL int64) error {
	if err := c.LeaderFor(id).Remote().RegisterLicense(id, kind, totalGCL); err != nil {
		return err
	}
	shard := c.ring.Shard(id)
	c.mu.Lock()
	if _, dup := c.declared[id]; !dup {
		c.licCount[shard]++
	}
	c.declared[id] = totalGCL
	c.metrics.setLicenses(shard, c.licCount[shard])
	c.mu.Unlock()
	return nil
}

// Declared returns a copy of the declared license budgets.
func (c *Cluster) Declared() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.declared))
	for id, total := range c.declared {
		out[id] = total
	}
	return out
}

// FailOver kills shard's leader and promotes its follower: the follower
// drains to the leader's durable tip, the leader dies, the replica
// attaches to a fresh store and starts serving under a bumped epoch, and
// a new follower starts tailing the new leader. Requests sent to the dead
// address fail; requests routed via any live server get a not_leader
// redirect to the new leader.
func (c *Cluster) FailOver(shard int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shards[shard]
	// The failover timeline opens with the detection event; in-process
	// the "probe" is the harness deciding the leader is dead, so the
	// silence duration is zero.
	EmitProbeTimeout(s.follower.Obs().flightRec(), shard, s.leader.Addr(), 0)
	if err := s.follower.Drain(); err != nil {
		return err
	}
	s.leader.Kill()
	opts, err := c.nextLeader(s, shard)
	if err != nil {
		return err
	}
	node, err := s.follower.Promote(opts)
	if err != nil {
		return fmt.Errorf("cluster: shard %d promote: %w", shard, err)
	}
	s.leader = node
	s.follower, err = c.startFollower(s, shard, node.Addr())
	if err != nil {
		return fmt.Errorf("cluster: shard %d new follower: %w", shard, err)
	}
	return nil
}

// States exports every live leader's state, indexed by shard.
func (c *Cluster) States() []slremote.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]slremote.State, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.leader.Remote().ExportState()
	}
	return out
}

// CheckConservation asserts the conservation law per shard and
// cluster-wide against the declared budgets.
func (c *Cluster) CheckConservation() error {
	return chaos.CheckConservationAll(c.Declared(), c.States()...)
}

// VerifyAudit re-walks every shard's audit chain, verifying the hash
// links across all leader incarnations that appended to it.
func (c *Cluster) VerifyAudit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for shard, s := range c.shards {
		if s.audit == nil {
			continue
		}
		if err := s.audit.Verify(); err != nil {
			return fmt.Errorf("cluster: shard %d audit chain: %w", shard, err)
		}
	}
	return nil
}

// Close tears the cluster down: followers stop, leaders shut down
// gracefully, audit chains close. Errors are collected but teardown
// always completes.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		if s.follower != nil {
			keep(s.follower.Close())
		}
		if s.leader != nil {
			keep(s.leader.Shutdown(ctx))
		}
		if s.audit != nil {
			keep(s.audit.Close())
		}
	}
	return firstErr
}
