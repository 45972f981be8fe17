package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/slremote"
	"repro/internal/store"
	"repro/internal/wire"
)

func testKey(t *testing.T) seccrypto.Key {
	t.Helper()
	key, err := seccrypto.KeyFromBytes([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatalf("KeyFromBytes: %v", err)
	}
	return key
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	r1, err := NewRing(4, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	r2, err := NewRing(4, 0)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	counts := make([]int, 4)
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("lic-%d", i)
		s := r1.Shard(id)
		if s2 := r2.Shard(id); s2 != s {
			t.Fatalf("ring not deterministic: %q → %d vs %d", id, s, s2)
		}
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range", s)
		}
		counts[s]++
	}
	for shard, n := range counts {
		// With 256 vnodes the split should be within a factor of two of
		// the 2500 mean; a collapsed ring (everything on one shard) is
		// the bug this guards against.
		if n < 1250 || n > 5000 {
			t.Fatalf("shard %d owns %d of 10000 licenses; distribution collapsed: %v", shard, n, counts)
		}
	}

	if _, err := NewRing(0, 0); err == nil {
		t.Fatal("zero-shard ring accepted")
	}
}

func TestDirectoryEpochsAndGate(t *testing.T) {
	ring, err := NewRing(2, 8)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	d := NewDirectory(ring)
	if addr, epoch := d.Leader(0); addr != "" || epoch != 0 {
		t.Fatalf("fresh directory: leader %q epoch %d", addr, epoch)
	}
	if got := d.SetLeader(0, "a:1"); got != 1 {
		t.Fatalf("first epoch = %d, want 1", got)
	}
	if got := d.SetLeader(0, "a:2"); got != 2 {
		t.Fatalf("second epoch = %d, want 2", got)
	}
	d.SetLeader(1, "b:1")

	// Find a license on each shard.
	licOn := func(shard int) string {
		for i := 0; ; i++ {
			id := fmt.Sprintf("lic-%d", i)
			if ring.Shard(id) == shard {
				return id
			}
		}
	}
	gate0 := d.Gate(0, "a:2")
	if leader, epoch, owned := gate0(licOn(0)); !owned || leader != "a:2" || epoch != 2 {
		t.Fatalf("gate0 on own license: leader %q epoch %d owned %v", leader, epoch, owned)
	}
	if leader, _, owned := gate0(licOn(1)); owned || leader != "b:1" {
		t.Fatalf("gate0 on shard 1 license: leader %q owned %v", leader, owned)
	}
	// A deposed leader no longer owns anything, even on its own shard.
	deposed := d.Gate(0, "a:1")
	if leader, epoch, owned := deposed(licOn(0)); owned || leader != "a:2" || epoch != 2 {
		t.Fatalf("deposed gate: leader %q epoch %d owned %v", leader, epoch, owned)
	}
}

// waitReplicated polls until shard's follower state equals its leader's.
func waitReplicated(t *testing.T, c *Cluster, shard int) {
	t.Helper()
	want := c.Leader(shard).Remote().ExportState()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := c.Follower(shard).State(); reflect.DeepEqual(got, want) {
			return
		}
		if time.Now().After(deadline) {
			got := c.Follower(shard).State()
			t.Fatalf("shard %d follower never caught up:\n got %+v\nwant %+v", shard, got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// licenseOnShard returns a license ID the cluster places on shard.
func licenseOnShard(c *Cluster, shard int, prefix string) string {
	for i := 0; ; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if c.Route(id) == shard {
			return id
		}
	}
}

func startTestCluster(t *testing.T, shards int, audit bool) *Cluster {
	t.Helper()
	c, err := New(Options{
		Shards:       shards,
		Dir:          t.TempDir(),
		SealKey:      testKey(t),
		SyncMode:     store.SyncAlways,
		PullInterval: time.Millisecond,
		Audit:        audit,
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

func TestClusterShardsAndReplicates(t *testing.T) {
	c := startTestCluster(t, 2, false)
	lic0 := licenseOnShard(c, 0, "lic")
	lic1 := licenseOnShard(c, 1, "lic")
	if err := c.RegisterLicense(lic0, lease.CountBased, 1000); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterLicense(lic1, lease.CountBased, 600); err != nil {
		t.Fatal(err)
	}

	// Each license lives only on its owning shard.
	if _, err := c.Leader(0).Remote().License(lic0); err != nil {
		t.Fatalf("shard 0 missing %s: %v", lic0, err)
	}
	if _, err := c.Leader(0).Remote().License(lic1); err == nil {
		t.Fatalf("shard 0 holds shard 1's license %s", lic1)
	}

	// Traffic on both shards, then both followers converge.
	for shard, lic := range []string{lic0, lic1} {
		remote := c.Leader(shard).Remote()
		init, err := remote.InitClient("", attest.Quote{}, nil)
		if err != nil {
			t.Fatalf("InitClient shard %d: %v", shard, err)
		}
		if _, err := remote.RenewLease(init.SLID, lic); err != nil {
			t.Fatalf("RenewLease shard %d: %v", shard, err)
		}
		if err := remote.ConsumeReport(init.SLID, lic, 5); err != nil {
			t.Fatalf("ConsumeReport shard %d: %v", shard, err)
		}
		waitReplicated(t, c, shard)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}

	// A client dialed at the wrong shard is redirected transparently.
	client, err := wire.DialPolicy(c.Leader(0).Addr(), time.Second, ratls.Insecure(),
		wire.RetryPolicy{Attempts: 2, Base: time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer client.Close()
	info, err := client.LicenseInfo(lic1)
	if err != nil {
		t.Fatalf("LicenseInfo across shards: %v", err)
	}
	if info.TotalGCL != 600 {
		t.Fatalf("TotalGCL = %d, want 600", info.TotalGCL)
	}
}

func TestClusterFailover(t *testing.T) {
	c := startTestCluster(t, 2, true)
	lic := licenseOnShard(c, 0, "lic")
	if err := c.RegisterLicense(lic, lease.CountBased, 2000); err != nil {
		t.Fatal(err)
	}
	remote := c.Leader(0).Remote()
	init, err := remote.InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("InitClient: %v", err)
	}
	grant, err := remote.RenewLease(init.SLID, lic)
	if err != nil {
		t.Fatalf("RenewLease: %v", err)
	}
	if err := remote.ConsumeReport(init.SLID, lic, grant.Units/2); err != nil {
		t.Fatalf("ConsumeReport: %v", err)
	}
	oldAddr := c.Leader(0).Addr()
	wantState := remote.ExportState()

	// A client is mid-conversation with the doomed leader.
	client, err := wire.DialPolicy(oldAddr, time.Second, ratls.Insecure(),
		wire.RetryPolicy{Attempts: 2, Base: time.Millisecond, Seed: 2})
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer client.Close()

	if err := c.FailOver(0); err != nil {
		t.Fatalf("FailOver: %v", err)
	}

	// The promoted leader serves the exact state the dead one had.
	newLeader := c.Leader(0)
	if newLeader.Addr() == oldAddr {
		t.Fatal("failover kept the same address")
	}
	if got := newLeader.Remote().ExportState(); !reflect.DeepEqual(got, wantState) {
		t.Fatalf("promoted state diverged:\n got %+v\nwant %+v", got, wantState)
	}
	if addr, epoch := c.Directory().Leader(0); addr != newLeader.Addr() || epoch != 2 {
		t.Fatalf("directory: leader %q epoch %d, want %q epoch 2", addr, epoch, newLeader.Addr())
	}

	// Renewals keep flowing on the promoted leader, and the survivor
	// shard's gate redirects traffic for the failed-over shard there.
	if _, err := newLeader.Remote().RenewLease(init.SLID, lic); err != nil {
		t.Fatalf("RenewLease on promoted leader: %v", err)
	}
	viaSurvivor, err := wire.DialPolicy(c.Leader(1).Addr(), time.Second, ratls.Insecure(),
		wire.RetryPolicy{Attempts: 2, Base: time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatalf("DialPolicy survivor: %v", err)
	}
	defer viaSurvivor.Close()
	if _, err := viaSurvivor.LicenseInfo(lic); err != nil {
		t.Fatalf("LicenseInfo via survivor after failover: %v", err)
	}

	// Zero lease-units created or destroyed across the takeover, and the
	// audit chain verifies across both leader incarnations.
	waitReplicated(t, c, 0)
	if err := c.CheckConservation(); err != nil {
		t.Fatalf("conservation after failover: %v", err)
	}
	if err := c.VerifyAudit(); err != nil {
		t.Fatalf("audit chain after failover: %v", err)
	}

	// A second failover of the same shard works (the new follower is live).
	if err := c.FailOver(0); err != nil {
		t.Fatalf("second FailOver: %v", err)
	}
	if _, epoch := c.Directory().Leader(0); epoch != 3 {
		t.Fatalf("epoch = %d after second failover, want 3", epoch)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatalf("conservation after second failover: %v", err)
	}
}

// ledgerDiff names where two server states differ, or returns "" when
// they agree. Stats are left out: denial counters are per-process
// observability, not WAL-logged ledger state.
func ledgerDiff(got, want slremote.State) string {
	got.Stats, want.Stats = slremote.ServerStats{}, slremote.ServerStats{}
	if reflect.DeepEqual(got, want) {
		return ""
	}
	for id, lic := range want.Licenses {
		if !reflect.DeepEqual(got.Licenses[id], lic) {
			return fmt.Sprintf("license %s: got %+v, want %+v", id, got.Licenses[id], lic)
		}
	}
	for slid, cs := range want.Clients {
		if !reflect.DeepEqual(got.Clients[slid], cs) {
			return fmt.Sprintf("client %s: got %+v, want %+v", slid, got.Clients[slid], cs)
		}
	}
	return fmt.Sprintf("got %+v, want %+v", got, want)
}

// TestClusterFailoverUnderSeededLoad fails every shard over in the middle
// of a seeded lock-step renew/consume load. Each promoted leader must hold
// exactly the state its dead predecessor served, and at the end the
// cluster must conserve lease units, verify its audit chains, agree with
// the load's own ledger of grants minus consumes, and have followers
// equal to their leaders. Conservation alone cannot see a replica that
// drops consume records: its state stays self-consistent. The state
// comparisons and the ledger can.
func TestClusterFailoverUnderSeededLoad(t *testing.T) {
	const (
		shards   = 2
		licenses = 24
		slids    = 240
		steps    = 1200
		budget   = 60
	)
	type counts struct{ grants, denials, consumes [shards]int }
	run := func(seed int64) counts {
		c := startTestCluster(t, shards, true)
		lics := make([]string, licenses)
		for l := range lics {
			lics[l] = fmt.Sprintf("lic-%02d", l)
			if err := c.RegisterLicense(lics[l], lease.CountBased, budget); err != nil {
				t.Fatal(err)
			}
		}
		type client struct {
			slid string
			lic  int
			held int64 // units granted minus units reported consumed
		}
		clients := make([]client, slids)
		for i := range clients {
			l := i % licenses
			init, err := c.LeaderFor(lics[l]).Remote().InitClient("", attest.Quote{}, nil)
			if err != nil {
				t.Fatalf("InitClient %d: %v", i, err)
			}
			clients[i] = client{slid: init.SLID, lic: l}
		}

		var n counts
		ledger := make(map[string]int64, licenses)            // grants − consumes per license
		killAt := map[int]int{steps / 3: 0, 2 * steps / 3: 1} // step → shard failed over after it
		rng := rand.New(rand.NewSource(seed))
		for step := 1; step <= steps; step++ {
			cl := &clients[rng.Intn(slids)]
			lic := lics[cl.lic]
			shard := c.Route(lic)
			remote := c.Leader(shard).Remote()
			grant, err := remote.RenewLease(cl.slid, lic)
			switch {
			case errors.Is(err, slremote.ErrLicenseExhausted):
				n.denials[shard]++
			case err != nil:
				t.Fatalf("step %d: RenewLease: %v", step, err)
			default:
				n.grants[shard]++
				cl.held += grant.Units
				ledger[lic] += grant.Units
			}
			if cl.held > 1 && rng.Intn(2) == 0 {
				units := cl.held / 2
				if err := remote.ConsumeReport(cl.slid, lic, units); err != nil {
					t.Fatalf("step %d: ConsumeReport: %v", step, err)
				}
				n.consumes[shard]++
				cl.held -= units
				ledger[lic] -= units
			}

			if k, ok := killAt[step]; ok {
				if n.consumes[k] == 0 {
					t.Fatalf("shard %d reached its kill with no consume report", k)
				}
				want := c.Leader(k).Remote().ExportState()
				if err := c.FailOver(k); err != nil {
					t.Fatalf("FailOver(%d): %v", k, err)
				}
				if d := ledgerDiff(c.Leader(k).Remote().ExportState(), want); d != "" {
					t.Fatalf("shard %d: promoted leader diverged from the dead one: %s", k, d)
				}
			}
		}

		if err := c.CheckConservation(); err != nil {
			t.Fatalf("conservation: %v", err)
		}
		if err := c.VerifyAudit(); err != nil {
			t.Fatalf("audit chain: %v", err)
		}
		outstanding := make(map[string]int64, licenses)
		for shard := 0; shard < shards; shard++ {
			if _, epoch := c.Directory().Leader(shard); epoch != 2 {
				t.Fatalf("shard %d at epoch %d, want 2 (one failover)", shard, epoch)
			}
			want := c.Leader(shard).Remote().ExportState()
			f := c.Follower(shard)
			if err := f.Drain(); err != nil {
				t.Fatalf("shard %d drain: %v", shard, err)
			}
			if d := ledgerDiff(f.State(), want); d != "" {
				t.Fatalf("shard %d: drained follower diverged from its leader: %s", shard, d)
			}
			for _, cs := range want.Clients {
				for lic, units := range cs.Outstanding {
					outstanding[lic] += units
				}
			}
		}
		for _, lic := range lics {
			if outstanding[lic] != ledger[lic] {
				t.Fatalf("%s: Σ outstanding = %d, ledger of grants − consumes = %d", lic, outstanding[lic], ledger[lic])
			}
		}
		return n
	}

	a, b := run(29), run(29)
	t.Logf("per shard: grants %v, denials %v, consumes %v", a.grants, a.denials, a.consumes)
	if a != b {
		t.Fatalf("same seed, different per-shard counts:\n %+v\n %+v", a, b)
	}
	for shard := 0; shard < shards; shard++ {
		if a.grants[shard] == 0 || a.denials[shard] == 0 {
			t.Fatalf("shard %d saw %d grants and %d denials; the load must exercise both", shard, a.grants[shard], a.denials[shard])
		}
	}
}

func TestClusterAttestedReplication(t *testing.T) {
	// The replication stream rides RA-TLS: every endpoint derives channel
	// credentials from the shared provisioning secret, exactly like the
	// sl-remote/sl-local daemons.
	secret := []byte("cluster-swarm")
	code := []byte("cluster-node")
	newChannel := func(role string) (*ratls.Config, error) {
		m, err := sgx.NewMachine(sgx.MachineConfig{Name: role})
		if err != nil {
			return nil, err
		}
		return ratls.NewProvisioned(role, m, secret, code, code)
	}
	c, err := New(Options{
		Shards:       1,
		Dir:          t.TempDir(),
		SealKey:      testKey(t),
		SyncMode:     store.SyncAlways,
		PullInterval: time.Millisecond,
		NewChannel:   newChannel,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	lic := licenseOnShard(c, 0, "lic")
	if err := c.RegisterLicense(lic, lease.CountBased, 300); err != nil {
		t.Fatal(err)
	}
	init, err := c.Leader(0).Remote().InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("InitClient: %v", err)
	}
	if _, err := c.Leader(0).Remote().RenewLease(init.SLID, lic); err != nil {
		t.Fatalf("RenewLease: %v", err)
	}
	waitReplicated(t, c, 0)

	// An un-attested peer cannot join the replication stream.
	plain, err := wire.DialPolicy(c.Leader(0).Addr(), 500*time.Millisecond, ratls.Insecure(),
		wire.RetryPolicy{Attempts: 1, Seed: 1})
	if err == nil {
		defer plain.Close()
		if _, err := plain.ReplPull(0, 0, 0); err == nil {
			t.Fatal("plaintext peer pulled the attested replication stream")
		}
	}
}

func TestClusterRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{Shards: 1, Dir: t.TempDir()}); err == nil {
		t.Fatal("cluster without a seal key accepted")
	}
	if _, err := New(Options{Shards: 1, SealKey: testKey(t)}); err == nil {
		t.Fatal("cluster without a state dir accepted")
	}
	if _, err := New(Options{Shards: 0, Dir: t.TempDir(), SealKey: testKey(t)}); err == nil {
		t.Fatal("zero-shard cluster accepted")
	}
}

func TestFollowerDrainSurvivesDeadLeader(t *testing.T) {
	c := startTestCluster(t, 1, false)
	lic := licenseOnShard(c, 0, "lic")
	if err := c.RegisterLicense(lic, lease.CountBased, 100); err != nil {
		t.Fatal(err)
	}
	waitReplicated(t, c, 0)
	// Kill the leader without draining first: Drain must still terminate,
	// holding whatever prefix was shipped (here: everything).
	want := c.Leader(0).Remote().ExportState()
	c.Leader(0).Kill()
	f := c.Follower(0)
	if err := f.Drain(); err != nil {
		t.Fatalf("Drain after leader death: %v", err)
	}
	if got := f.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("drained state diverged:\n got %+v\nwant %+v", got, want)
	}
}
