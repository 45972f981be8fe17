package cluster

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/obs/flight"
	"repro/internal/ratls"
	"repro/internal/store"
	"repro/internal/wire"
)

func startObservedCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := New(Options{
		Shards:       shards,
		Dir:          t.TempDir(),
		SealKey:      testKey(t),
		SyncMode:     store.SyncAlways,
		PullInterval: time.Millisecond,
		Observe:      true,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return c
}

func TestObsTargetsAndBundleInheritance(t *testing.T) {
	c := startObservedCluster(t, 1)
	targets := c.ObsTargets()
	if len(targets) != 2 {
		t.Fatalf("ObsTargets = %d bundles, want leader + follower", len(targets))
	}
	if targets[0].Name != "shard0-n0" || targets[1].Name != "shard0-f0" {
		t.Fatalf("bundle names = %q, %q", targets[0].Name, targets[1].Name)
	}
	for _, o := range targets {
		if o.URL() == "" {
			t.Fatalf("bundle %s has no endpoint", o.Name)
		}
	}

	followerBundle := c.Follower(0).Obs()
	oldLeaderBundle := c.Leader(0).Obs()
	if err := c.FailOver(0); err != nil {
		t.Fatalf("FailOver: %v", err)
	}

	// The bundle follows the process: the promoted leader keeps the
	// follower's registry/tracer/recorder, so its counters are continuous
	// across the failover.
	if got := c.Leader(0).Obs(); got != followerBundle {
		t.Fatalf("promoted leader got a fresh bundle %q, want the follower's %q", got.Name, followerBundle.Name)
	}
	targets = c.ObsTargets()
	if len(targets) != 3 {
		t.Fatalf("ObsTargets after failover = %d, want 3 (dead leader stays listed)", len(targets))
	}
	if targets[2].Name != "shard0-f1" {
		t.Fatalf("new follower bundle = %q, want shard0-f1", targets[2].Name)
	}
	// The dead leader's address survives Close: a scraper keeps probing it
	// and the refused connection is the failover signal.
	if oldLeaderBundle.URL() == "" {
		t.Fatal("dead leader bundle lost its address")
	}
}

// fleetTargets adapts the cluster's bundles (plus extras) to scrape targets.
func fleetTargets(c *Cluster, extra ...*NodeObs) []fleet.Target {
	var out []fleet.Target
	for _, o := range append(c.ObsTargets(), extra...) {
		out = append(out, fleet.Target{Name: o.Name, URL: o.URL()})
	}
	return out
}

func mergedChild(fams []obs.ExportFamily, name string, label string) (obs.ExportFamily, obs.ExportChild, bool) {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, ch := range f.Children {
			if label == "" || (len(ch.Labels) > 0 && ch.Labels[0] == label) {
				return f, ch, true
			}
		}
	}
	return obs.ExportFamily{}, obs.ExportChild{}, false
}

// TestClusterObserveFleetFailover is the acceptance run: a three-shard
// observed cluster takes wire traffic (including one renewal that crosses
// shards through a redirect), loses a leader, and a fleet aggregator
// reconstructs all of it — merged counters across live and dead nodes,
// quantiles from bucket-merged histograms, one trace stitched across
// three nodes, and a flight timeline spelling out the failover.
func TestClusterObserveFleetFailover(t *testing.T) {
	c := startObservedCluster(t, 3)
	lic0 := licenseOnShard(c, 0, "obs")
	lic1 := licenseOnShard(c, 1, "obs")
	for _, lic := range []string{lic0, lic1} {
		// A deep pool: repeated renewals without consumption must all be
		// granted so the merged counter has an exact ground truth.
		if err := c.RegisterLicense(lic, lease.CountBased, 1<<30); err != nil {
			t.Fatal(err)
		}
	}

	// The client is a fleet member too: its registry and span ring feed
	// the same aggregator, so the stitched trace includes the caller side.
	clientObs := NewNodeObs("client", 64)
	if err := clientObs.Serve("127.0.0.1:0", obs.HandlerOptions{}); err != nil {
		t.Fatalf("client obs: %v", err)
	}
	defer clientObs.Close()

	client, err := wire.DialPolicy(c.Leader(0).Addr(), time.Second, ratls.Insecure(),
		wire.RetryPolicy{Attempts: 2, Base: time.Millisecond, Seed: 5})
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer client.Close()
	client.ExposeMetrics(clientObs.Registry, clientObs.Tracer)

	init0, err := c.Leader(0).Remote().InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("InitClient shard 0: %v", err)
	}
	init1, err := c.Leader(1).Remote().InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("InitClient shard 1: %v", err)
	}

	// Algorithm 1 grants tg/D per renewal, so a fresh pool sustains at most
	// D=4 full renewals; stay under that so every attempt is granted and
	// the counters have an exact ground truth.
	granted := 0
	span0 := clientObs.Tracer.Start("bench.shard0")
	for i := 0; i < 3; i++ {
		if _, err := client.RenewLeaseSpan(span0, init0.SLID, lic0); err != nil {
			t.Fatalf("RenewLease shard 0: %v", err)
		}
		granted++
	}
	span0.End(nil)

	// One renewal for a shard-1 license while connected to shard 0: the
	// NotLeader redirect makes this single logical request touch two
	// server nodes under one TraceID.
	redirect := clientObs.Tracer.Start("bench.redirect")
	if _, err := client.RenewLeaseSpan(redirect, init1.SLID, lic1); err != nil {
		t.Fatalf("RenewLease across shards: %v", err)
	}
	redirect.End(nil)
	granted++
	traceID := redirect.Context().Trace.String()

	agg := fleet.New(fleet.Options{
		Targets: fleetTargets(c, clientObs),
		Timeout: 2 * time.Second,
		Logf:    t.Logf,
	})
	if err := agg.ScrapeOnce(); err != nil {
		t.Fatalf("ScrapeOnce with all nodes up: %v", err)
	}

	// Counter sums across every node equal the ground truth.
	if _, ch, ok := mergedChild(agg.Merged(), "slremote_renewals_total", ""); !ok || ch.Value != float64(granted) {
		t.Fatalf("merged slremote_renewals_total = %+v (ok=%v), want %d", ch, ok, granted)
	}

	// The redirect trace stitches across three nodes: client, the wrong
	// shard (which answered NotLeader), and the owning shard. Handler
	// spans land in the server tracers asynchronously, so poll briefly.
	// Six spans: the client root, two client-side RPC hops (the NotLeader
	// answer and the redirected retry), a handler span on each shard, and
	// the owning shard's slremote.renew child.
	var tr *fleet.Trace
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr = agg.StitchTrace(traceID)
		if tr.Spans >= 6 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tr.Spans != 6 || len(tr.Nodes) != 3 {
		t.Fatalf("stitched trace: %d spans across %v, want 6 spans on client + 2 shard nodes\n%s",
			tr.Spans, tr.Nodes, tr.Render())
	}
	if len(tr.Roots) != 1 || len(tr.Orphans) != 0 {
		t.Fatalf("roots=%d orphans=%d, want 1/0:\n%s", len(tr.Roots), len(tr.Orphans), tr.Render())
	}
	hopNodes := map[string]bool{}
	for _, hop := range tr.Roots[0].Children {
		for _, h := range hop.Children {
			hopNodes[h.Node] = true
		}
	}
	if !hopNodes["shard0-n0"] || !hopNodes["shard1-n0"] {
		t.Fatalf("handler spans on %v, want both shard0-n0 and shard1-n0:\n%s", hopNodes, tr.Render())
	}

	// Quantiles come from bucket-merged histograms: the merged renew
	// latency family must carry real counts and a computable p99.
	fam, ch, ok := mergedChild(agg.Merged(), "wire_server_rpc_latency_seconds", wire.TypeRenew)
	if !ok {
		t.Fatal("merged wire_server_rpc_latency_seconds missing a renew child")
	}
	if len(ch.Buckets) != len(fam.Bounds)+1 {
		t.Fatalf("merged buckets = %d for %d bounds", len(ch.Buckets), len(fam.Bounds))
	}
	if ch.Count < int64(granted) {
		t.Fatalf("merged renew latency count = %d, want >= %d", ch.Count, granted)
	}
	p99 := obs.BucketQuantile(fam.Bounds, ch.Buckets, 0.99)
	if p99 <= 0 || p99 > fam.Bounds[len(fam.Bounds)-1] {
		t.Fatalf("fleet p99 = %v from merged buckets, want within (0, %v]", p99, fam.Bounds[len(fam.Bounds)-1])
	}

	// Kill shard 0's leader. The aggregator keeps its last good snapshot
	// (its renewals stay in the fleet totals) and marks the node down.
	if err := c.FailOver(0); err != nil {
		t.Fatalf("FailOver: %v", err)
	}
	promoted := c.Leader(0)
	if _, err := promoted.Remote().RenewLease(init0.SLID, lic0); err != nil {
		t.Fatalf("RenewLease on promoted leader: %v", err)
	}
	granted++

	if err := agg.ScrapeOnce(); err == nil {
		t.Fatal("scrape after leader death reported no error")
	}
	// The fleet total now has three contributors: the dead leader's last
	// good snapshot (3 renewals, retained stale), shard 1's leader (1), and
	// the promoted node — whose replica replayed the dead leader's 3 WAL
	// renewals into its own counter before granting 1 more. The overlap is
	// real replicated state, not an aggregation bug, and it is exactly
	// predictable.
	wantSum := float64(granted + 3)
	merged := agg.Merged()
	if _, ch, ok := mergedChild(merged, "slremote_renewals_total", ""); !ok || ch.Value != wantSum {
		t.Fatalf("merged renewals after failover = %+v (ok=%v), want %v (stale snapshot + WAL-replayed copy)",
			ch, ok, wantSum)
	}
	if _, ch, ok := mergedChild(merged, "fleet_node_up", "shard0-n0"); !ok || ch.Value != 0 {
		t.Fatalf("fleet_node_up{shard0-n0} = %+v (ok=%v), want 0", ch, ok)
	}
	if _, ch, ok := mergedChild(merged, "fleet_node_up", "shard1-n0"); !ok || ch.Value != 1 {
		t.Fatalf("fleet_node_up{shard1-n0} = %+v (ok=%v), want 1", ch, ok)
	}
	// The epoch gauge merges under the Max rule: the promoted node knows
	// epoch 2 and no stale snapshot can pull it back down.
	if _, ch, ok := mergedChild(merged, "cluster_shard_epoch", "0"); !ok || ch.Value != 2 {
		t.Fatalf("merged cluster_shard_epoch{0} = %+v (ok=%v), want 2", ch, ok)
	}

	// The flight timeline reconstructs the failover: probe timeout, WAL
	// drain, promotion, epoch bump — in order, timestamped, all on the
	// surviving process's recorder.
	var seq []flight.Event
	for _, ev := range agg.Events() {
		if strings.HasPrefix(ev.Kind, "failover.") || ev.Kind == "cluster.epoch_bump" {
			seq = append(seq, ev)
		}
	}
	wantKinds := []string{"failover.probe_timeout", "failover.drain", "failover.promote", "cluster.epoch_bump"}
	if len(seq) != len(wantKinds) {
		t.Fatalf("failover timeline = %d events, want %v:\n%+v", len(seq), wantKinds, seq)
	}
	for i, ev := range seq {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("timeline[%d] = %s, want %s (full: %+v)", i, ev.Kind, wantKinds[i], seq)
		}
		if ev.Node != "shard0-f0" {
			t.Fatalf("timeline[%d] on node %q, want the promoted process shard0-f0", i, ev.Node)
		}
		if i > 0 && ev.Time.Before(seq[i-1].Time) {
			t.Fatalf("timeline timestamps regress at %d: %v before %v", i, ev.Time, seq[i-1].Time)
		}
	}
	if got := seq[3].Attr("epoch"); got != "2" {
		t.Fatalf("epoch bump attr = %q, want 2", got)
	}

	// The black box survives the process: persist the promoted node's ring
	// and read it back.
	path := filepath.Join(t.TempDir(), "flight.log")
	if err := promoted.Obs().Flight.Persist(path); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	events, err := flight.ReadDump(path)
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	kinds := map[string]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
	}
	for _, k := range wantKinds {
		if !kinds[k] {
			t.Fatalf("persisted dump missing %s (have %v)", k, kinds)
		}
	}
}
