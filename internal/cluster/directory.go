package cluster

import (
	"sync"
)

// Directory is the cluster's routing authority: for every shard it names
// the current leader address and the epoch that leadership belongs to.
// Epochs only move forward — each promotion bumps the shard's epoch — so
// any two answers for the same shard are ordered, and a client or server
// seeing a smaller epoch knows it is stale.
//
// In this reproduction the directory is a shared in-process structure
// (the coordination service a production deployment would put in etcd or
// the like); servers consult it through the gate closures it hands out.
type Directory struct {
	ring *Ring

	mu      sync.RWMutex
	leaders []string
	epochs  []uint64
}

// NewDirectory builds a directory over the ring with every shard
// leaderless at epoch 0; SetLeader installs the initial leaders.
func NewDirectory(ring *Ring) *Directory {
	return &Directory{
		ring:    ring,
		leaders: make([]string, ring.Shards()),
		epochs:  make([]uint64, ring.Shards()),
	}
}

// SetLeader makes addr the leader of shard and bumps the shard's epoch,
// returning the new epoch.
func (d *Directory) SetLeader(shard int, addr string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.leaders[shard] = addr
	d.epochs[shard]++
	return d.epochs[shard]
}

// Leader returns shard's current leader address and epoch. The address is
// empty while the shard is leaderless (before the first SetLeader, or
// mid-failover if a caller marked it so).
func (d *Directory) Leader(shard int) (addr string, epoch uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.leaders[shard], d.epochs[shard]
}

// Locate maps a license to its owning shard and that shard's current
// leader.
func (d *Directory) Locate(licenseID string) (shard int, leader string, epoch uint64) {
	shard = d.ring.Shard(licenseID)
	leader, epoch = d.Leader(shard)
	return shard, leader, epoch
}

// Gate returns the wire.ShardGate for a server at self serving shard: a
// license is owned here exactly when the ring places it on this shard AND
// the directory still names self the shard's leader. Everything else is
// answered with the owning shard's current leader, so a request that
// lands on a stale or wrong server gets one redirect to the right place.
func (d *Directory) Gate(shard int, self string) func(licenseID string) (string, uint64, bool) {
	return func(licenseID string) (string, uint64, bool) {
		owner, leader, epoch := d.Locate(licenseID)
		owned := owner == shard && leader == self
		return leader, epoch, owned
	}
}
