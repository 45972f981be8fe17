package wire

import (
	"errors"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/slremote"
	"repro/internal/store"
)

func TestBackoffSeededDeterminism(t *testing.T) {
	policy := RetryPolicy{Attempts: 6, Base: 10 * time.Millisecond, Max: 50 * time.Millisecond, Seed: 42}
	draw := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]time.Duration, 0, 5)
		for retry := 1; retry <= 5; retry++ {
			out = append(out, policy.backoff(retry, rng))
		}
		return out
	}
	a, b := draw(42), draw(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed drew different backoffs:\n %v\n %v", a, b)
	}
	if c := draw(43); reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds drew identical backoffs: %v", a)
	}
	// Full jitter stays within the doubling-then-capped ceiling.
	ceilings := []time.Duration{10, 20, 40, 50, 50}
	for i := range ceilings {
		ceilings[i] *= time.Millisecond
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		for retry := 1; retry <= 5; retry++ {
			if d := policy.backoff(retry, rng); d < 0 || d > ceilings[retry-1] {
				t.Fatalf("backoff(%d) = %v outside [0, %v]", retry, d, ceilings[retry-1])
			}
		}
	}
}

func TestDialRetriesCountedAccurately(t *testing.T) {
	// A port with nothing listening: every attempt is refused, so the
	// retry counter must land at exactly Attempts-1.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	c := &Client{
		timeout: 500 * time.Millisecond,
		rc:      ratls.Insecure(),
		policy:  RetryPolicy{Attempts: 4, Base: time.Millisecond, Max: 2 * time.Millisecond, Seed: 9},
		rng:     rand.New(rand.NewSource(9)),
	}
	if _, err := c.dial(deadAddr); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if got := c.dialRetries.Load(); got != 3 {
		t.Fatalf("dialRetries = %d after 4 failed attempts, want 3", got)
	}

	// A clean first-attempt connect costs zero retries, and the registry
	// reads the same counter the client increments.
	d := startDeployment(t)
	client, err := DialPolicy(d.addr, time.Second, ratls.Insecure(), RetryPolicy{Attempts: 4, Base: time.Millisecond, Seed: 9})
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer client.Close()
	reg := obs.NewRegistry()
	client.ExposeMetrics(reg, nil)
	if got := reg.Snapshot().Get("wire_client_dial_retries_total", nil); got != 0 {
		t.Fatalf("wire_client_dial_retries_total = %v after clean dial, want 0", got)
	}
	client.dialRetries.Add(2)
	if got := reg.Snapshot().Get("wire_client_dial_retries_total", nil); got != 2 {
		t.Fatalf("wire_client_dial_retries_total = %v, want 2", got)
	}
}

// startShardPair spins up two deployments where only `owner` owns every
// license: the other server's gate redirects to it.
func startShardPair(t *testing.T) (stale, owner *testDeployment) {
	t.Helper()
	staleLn, ownerLn := listen(t), listen(t)
	leader := ownerLn.Addr().String()
	stale = serveDeployment(t, staleLn, func(licenseID string) (string, uint64, bool) {
		return leader, 7, false
	}, nil)
	owner = serveDeployment(t, ownerLn, func(licenseID string) (string, uint64, bool) {
		return leader, 7, true
	}, nil)
	return stale, owner
}

func TestClientFollowsNotLeaderRedirect(t *testing.T) {
	stale, owner := startShardPair(t)

	client, err := DialPolicy(stale.addr, time.Second, ratls.Insecure(), RetryPolicy{Attempts: 2, Base: time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer client.Close()
	reg := obs.NewRegistry()
	client.ExposeMetrics(reg, nil)

	// The admin write lands on the owning shard despite being sent to the
	// stale server.
	if err := client.RegisterLicense("lic", uint8(lease.CountBased), 500); err != nil {
		t.Fatalf("RegisterLicense via redirect: %v", err)
	}
	if _, err := owner.remote.License("lic"); err != nil {
		t.Fatalf("license missing on owner after redirected registration: %v", err)
	}
	if _, err := stale.remote.License("lic"); err == nil {
		t.Fatal("license landed on the stale server")
	}
	if got := client.redirects.Load(); got != 1 {
		t.Fatalf("redirects = %d, want 1", got)
	}
	if got := reg.Snapshot().Get("wire_client_redirects_total", nil); got != 1 {
		t.Fatalf("wire_client_redirects_total = %v, want 1", got)
	}

	// The connection now points at the leader: further license-scoped
	// calls go direct, costing no additional redirect.
	info, err := client.LicenseInfo("lic")
	if err != nil {
		t.Fatalf("LicenseInfo after redirect: %v", err)
	}
	if info.TotalGCL != 500 {
		t.Fatalf("TotalGCL = %d, want 500", info.TotalGCL)
	}
	if got := client.redirects.Load(); got != 1 {
		t.Fatalf("redirects = %d after direct call, want still 1", got)
	}
}

func TestClientRedirectLoopAndLeaderlessShard(t *testing.T) {
	// Two stale servers pointing at each other: the hop bound turns the
	// routing loop into ErrNotLeader instead of ping-ponging forever.
	lnA, lnB := listen(t), listen(t)
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	serveDeployment(t, lnA, func(string) (string, uint64, bool) { return addrB, 1, false }, nil)
	serveDeployment(t, lnB, func(string) (string, uint64, bool) { return addrA, 1, false }, nil)

	client, err := DialPolicy(addrA, time.Second, ratls.Insecure(), RetryPolicy{Attempts: 2, Base: time.Millisecond, Seed: 5})
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer client.Close()
	if _, err := client.LicenseInfo("lic"); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("routing loop err = %v, want ErrNotLeader", err)
	}

	// A shard mid-failover names no leader: the client fails fast rather
	// than redialing anywhere.
	leaderless := serveDeployment(t, listen(t), func(string) (string, uint64, bool) { return "", 2, false }, nil)
	c2, err := DialPolicy(leaderless.addr, time.Second, ratls.Insecure(), RetryPolicy{Attempts: 2, Base: time.Millisecond, Seed: 5})
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer c2.Close()
	if _, err := c2.LicenseInfo("lic"); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("leaderless err = %v, want ErrNotLeader", err)
	}
	if !strings.Contains(c2.addr, leaderless.addr) {
		t.Fatalf("client moved to %q despite leaderless reply", c2.addr)
	}
}

func TestReplPullStreamsWALOverWire(t *testing.T) {
	// A persistent leader behind a wire server with a replication source:
	// a remote follower pulling over TCP converges to the leader's state.
	key, err := seccrypto.KeyFromBytes([]byte("fedcba9876543210"))
	if err != nil {
		t.Fatalf("KeyFromBytes: %v", err)
	}
	st, rec, err := store.Open(store.Options{Dir: t.TempDir(), Mode: store.SyncAlways})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	leader, err := slremote.RecoverServer(slremote.DefaultConfig(), nil, rec, slremote.PersistConfig{Log: st, Snap: st, SealKey: key})
	if err != nil {
		t.Fatalf("RecoverServer: %v", err)
	}
	ln := listen(t)
	srv, err := NewServer(leader, t.Logf, ratls.Insecure(), nil, st, nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	defer func() { srv.Close(); <-done }()

	if err := leader.RegisterLicense("lic", lease.CountBased, 800); err != nil {
		t.Fatal(err)
	}
	init, err := leader.InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("InitClient: %v", err)
	}
	if _, err := leader.RenewLease(init.SLID, "lic"); err != nil {
		t.Fatalf("RenewLease: %v", err)
	}

	client, err := DialPolicy(ln.Addr().String(), time.Second, ratls.Insecure(), RetryPolicy{Attempts: 2, Base: time.Millisecond, Seed: 11})
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer client.Close()
	replica, err := slremote.NewReplica(slremote.DefaultConfig(), nil, key)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	var gen uint64
	var off int64
	for {
		resp, err := client.ReplPull(gen, off, 0)
		if err != nil {
			t.Fatalf("ReplPull: %v", err)
		}
		batch := store.TailBatch{
			Gen:        resp.Gen,
			Rebase:     resp.Rebase,
			Snapshot:   resp.Snapshot,
			Records:    resp.Records,
			NextOffset: resp.NextOffset,
			Tip:        resp.Tip,
		}
		if _, err := replica.ApplyBatch(batch); err != nil {
			t.Fatalf("ApplyBatch: %v", err)
		}
		gen, off = resp.Gen, resp.NextOffset
		if batch.Caught() {
			break
		}
	}
	if got, want := replica.State(), leader.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica diverged over the wire:\n got %+v\nwant %+v", got, want)
	}

	// A server without a source refuses the pull instead of pretending an
	// empty WAL.
	bare := startDeployment(t)
	c2, err := DialPolicy(bare.addr, time.Second, ratls.Insecure(), RetryPolicy{Attempts: 2, Base: time.Millisecond, Seed: 11})
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer c2.Close()
	if _, err := c2.ReplPull(0, 0, 0); err == nil {
		t.Fatal("ReplPull against a source-less server succeeded")
	}
}
