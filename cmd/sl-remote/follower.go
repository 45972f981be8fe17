package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/ratls"
)

// leaderProbeInterval paces the follower's liveness probes against its
// leader. Probes are plain TCP connects: finding out whether the process
// is alive needs no attestation.
const leaderProbeInterval = time.Second

// standBy is the daemon's standby phase: tail the leader's WAL over the
// attested channel rc, keep a warm replica, and — once the leader stays
// unreachable for promoteAfter — finish replaying whatever was shipped
// and take over the shard as the node opts describes. The bundle in
// opts.Obs rides along, so the failover timeline (probe timeout → drain →
// promote → epoch bump) lives in one black box. A stop that arrives first
// ends the standby without a node: the leader keeps serving.
func standBy(leaderAddr string, promoteAfter time.Duration, rc *ratls.Config, opts cluster.NodeOptions, stop <-chan os.Signal) (*cluster.Node, error) {
	f, err := cluster.StartFollower(cluster.FollowerOptions{
		Shard:      opts.Shard,
		LeaderAddr: leaderAddr,
		SealKey:    opts.SealKey,
		Config:     opts.Config,
		Service:    opts.Service,
		Channel:    rc,
		Obs:        opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	log.Printf("sl-remote: follower of %s (shard %d): tailing WAL, promoting after %v of leader silence",
		leaderAddr, opts.Shard, promoteAfter)

	probe := time.NewTicker(leaderProbeInterval)
	defer probe.Stop()
	var silentSince time.Time
	for {
		select {
		case sig := <-stop:
			log.Printf("sl-remote: follower: %v: exiting (%d records replicated; leader keeps serving)", sig, f.Applied())
			return nil, f.Close()
		case <-probe.C:
		}
		conn, err := (&net.Dialer{Timeout: leaderProbeInterval}).Dial("tcp", leaderAddr)
		if err == nil {
			conn.Close()
			silentSince = time.Time{}
			continue
		}
		if silentSince.IsZero() {
			silentSince = time.Now()
			log.Printf("sl-remote: follower: leader %s unreachable: %v", leaderAddr, err)
		}
		if time.Since(silentSince) < promoteAfter {
			continue
		}
		log.Printf("sl-remote: follower: leader silent for %v: promoting", time.Since(silentSince).Round(time.Second))
		cluster.EmitProbeTimeout(opts.Obs.Flight, opts.Shard, leaderAddr, time.Since(silentSince))
		break
	}

	// Drain pulls until the leader's durable tip — or, with the leader
	// dead, until the connection fails, leaving exactly the prefix the
	// leader managed to ship, which is a legal conserving state.
	if err := f.Drain(); err != nil {
		return nil, fmt.Errorf("draining replication stream: %w", err)
	}
	node, err := f.Promote(opts)
	if err != nil {
		return nil, fmt.Errorf("promoting follower: %w", err)
	}
	_, epoch := opts.Directory.Leader(opts.Shard)
	log.Printf("sl-remote: promoted: serving shard %d at epoch %d (%d replicated records)", opts.Shard, epoch, f.Applied())
	return node, nil
}
