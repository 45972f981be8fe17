package sllocal

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/attest"
	"repro/internal/chaos"
	"repro/internal/lease"
	"repro/internal/sgx"
	"repro/internal/slremote"
)

// testEnv bundles a machine, platform, server, and SL-Local service.
type testEnv struct {
	machine *sgx.Machine
	plat    *attest.Platform
	remote  *slremote.Server
	state   *UntrustedState
	svc     *Service
}

func newEnv(t *testing.T, cfg Config, licenses map[string]int64) *testEnv {
	t.Helper()
	m, err := sgx.NewMachine(sgx.MachineConfig{Name: "client", EPCBytes: 8 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	plat, err := attest.NewPlatform("client", m)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	remote, err := slremote.NewServer(slremote.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	for id, total := range licenses {
		if err := remote.RegisterLicense(id, lease.CountBased, total); err != nil {
			t.Fatalf("RegisterLicense: %v", err)
		}
	}
	state := &UntrustedState{}
	svc, err := New(cfg, Deps{Machine: m, Platform: plat, Remote: remote, State: state})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &testEnv{machine: m, plat: plat, remote: remote, state: state, svc: svc}
}

func (e *testEnv) app(t *testing.T, name string) *sgx.Enclave {
	t.Helper()
	encl, err := e.machine.CreateEnclave(name, []byte("app-"+name), 0)
	if err != nil {
		t.Fatalf("CreateEnclave: %v", err)
	}
	return encl
}

// restart starts the service's next incarnation over the same machine and
// state (process restart on the same box).
func (e *testEnv) restart(t *testing.T) {
	t.Helper()
	if err := e.svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
}

func TestInitAssignsSLID(t *testing.T) {
	env := newEnv(t, Config{TokenBatch: 1}, nil)
	if err := env.svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	if env.svc.SLID() == "" {
		t.Fatal("no SLID after init")
	}
	if env.state.SLID != env.svc.SLID() {
		t.Fatal("SLID not persisted to untrusted state")
	}
	if env.svc.Enclave() == nil {
		t.Fatal("no enclave after init")
	}
	// Idempotent.
	if err := env.svc.Init(); err != nil {
		t.Fatalf("second Init: %v", err)
	}
}

func TestRequestBeforeInit(t *testing.T) {
	env := newEnv(t, Config{TokenBatch: 1}, map[string]int64{"lic": 100})
	app := env.app(t, "app")
	if _, err := env.svc.RequestToken(app, "lic"); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("pre-init request: %v", err)
	}
	if err := env.svc.Shutdown(); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("pre-init shutdown: %v", err)
	}
}

func TestRequestTokenBasic(t *testing.T) {
	env := newEnv(t, Config{TokenBatch: 1}, map[string]int64{"lic": 1000})
	if err := env.svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	app := env.app(t, "app")
	tok, err := env.svc.RequestToken(app, "lic")
	if err != nil {
		t.Fatalf("RequestToken: %v", err)
	}
	if tok.Grants != 1 || tok.License != "lic" || tok.LeaseID == 0 {
		t.Fatalf("token = %+v", tok)
	}
	if !tok.Use() {
		t.Fatal("token unusable")
	}
	st := env.svc.Stats()
	if st.Requests != 1 || st.TokensIssued != 1 || st.LocalAttests != 1 || st.Renewals != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTokenBatchingReducesAttestations(t *testing.T) {
	// Section 7.3: 10 tokens per local attestation ≈ 10× fewer attestations.
	runChecks := func(batch int) (attests int64) {
		env := newEnv(t, Config{TokenBatch: batch}, map[string]int64{"lic": 100_000})
		if err := env.svc.Init(); err != nil {
			t.Fatalf("Init: %v", err)
		}
		app := env.app(t, "app")
		const checks = 200
		issued := 0
		for issued < checks {
			tok, err := env.svc.RequestToken(app, "lic")
			if err != nil {
				t.Fatalf("RequestToken: %v", err)
			}
			for tok.Use() && issued < checks {
				issued++
			}
		}
		return env.svc.Stats().LocalAttests
	}
	single := runChecks(1)
	batched := runChecks(10)
	if single != 200 {
		t.Fatalf("unbatched attestations = %d, want 200", single)
	}
	if batched != 20 {
		t.Fatalf("batched attestations = %d, want 20", batched)
	}
}

func TestLocalRenewalOnExhaustion(t *testing.T) {
	// Grant pool small enough to force multiple renewals.
	env := newEnv(t, Config{TokenBatch: 1}, map[string]int64{"lic": 40})
	if err := env.svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	app := env.app(t, "app")
	granted := 0
	for i := 0; i < 100; i++ {
		tok, err := env.svc.RequestToken(app, "lic")
		if err != nil {
			if !errors.Is(err, ErrLeaseDenied) {
				t.Fatalf("RequestToken: %v", err)
			}
			break
		}
		granted += tok.Grants
	}
	if granted == 0 || granted > 40 {
		t.Fatalf("granted %d tokens from a 40-unit license", granted)
	}
	st := env.svc.Stats()
	if st.Renewals < 2 {
		t.Fatalf("renewals = %d, want ≥2 (forced by small sub-GCLs)", st.Renewals)
	}
	if st.Denials == 0 {
		t.Fatal("no denial after license exhaustion")
	}
}

func TestUnknownLicenseDenied(t *testing.T) {
	env := newEnv(t, Config{TokenBatch: 1}, nil)
	if err := env.svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	app := env.app(t, "app")
	if _, err := env.svc.RequestToken(app, "ghost"); !errors.Is(err, ErrLeaseDenied) {
		t.Fatalf("unknown license: %v", err)
	}
}

func TestRemoteAttestationAmortization(t *testing.T) {
	// The paper's headline: one remote attestation per renewal instead of
	// one per license check (≈99% fewer RAs).
	env := newEnv(t, DefaultConfig(), map[string]int64{"lic": 1_000_000})
	if err := env.svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	app := env.app(t, "app")
	const checks = 5000
	issued := 0
	for issued < checks {
		tok, err := env.svc.RequestToken(app, "lic")
		if err != nil {
			t.Fatalf("RequestToken: %v", err)
		}
		for tok.Use() && issued < checks {
			issued++
		}
	}
	ras := env.machine.Stats().RemoteAttests
	// One at init, a handful for renewals.
	if ras >= checks/100 {
		t.Fatalf("remote attestations = %d for %d checks; want ≈99%% reduction", ras, checks)
	}
}

func TestShutdownRestorePreservesCounters(t *testing.T) {
	env := newEnv(t, Config{TokenBatch: 1}, map[string]int64{"lic": 1000})
	if err := env.svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	app := env.app(t, "app")
	for i := 0; i < 5; i++ {
		if _, err := env.svc.RequestToken(app, "lic"); err != nil {
			t.Fatalf("RequestToken: %v", err)
		}
	}
	renewalsBefore := env.svc.Stats().Renewals
	outstandingBefore := env.remote.Outstanding(env.svc.SLID(), "lic")
	if err := env.svc.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if env.state.Snapshot == nil {
		t.Fatal("no snapshot persisted")
	}

	env.restart(t)
	// The restored service must keep serving from the restored sub-GCL
	// without a new renewal.
	for i := 0; i < 5; i++ {
		if _, err := env.svc.RequestToken(app, "lic"); err != nil {
			t.Fatalf("post-restore RequestToken: %v", err)
		}
	}
	if got := env.svc.Stats().Renewals; got != renewalsBefore {
		t.Fatalf("renewals %d before restore, %d after; want none (served from restored tree)", renewalsBefore, got)
	}
	if got := env.remote.Outstanding(env.svc.SLID(), "lic"); got != outstandingBefore {
		t.Fatalf("outstanding changed across graceful restart: %d → %d", outstandingBefore, got)
	}
}

func TestCrashForfeitsLeases(t *testing.T) {
	env := newEnv(t, Config{TokenBatch: 1}, map[string]int64{"lic": 1000})
	if err := env.svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	app := env.app(t, "app")
	if _, err := env.svc.RequestToken(app, "lic"); err != nil {
		t.Fatalf("RequestToken: %v", err)
	}
	held := env.remote.Outstanding(env.svc.SLID(), "lic")
	if held == 0 {
		t.Fatal("nothing outstanding")
	}
	env.svc.Crash()
	if _, err := env.svc.RequestToken(app, "lic"); !errors.Is(err, ErrStopped) {
		t.Fatalf("request after crash: %v", err)
	}

	// On restart, SL-Remote infers the crash (no escrow) and forfeits.
	env.restart(t)
	lic, err := env.remote.License("lic")
	if err != nil {
		t.Fatalf("License: %v", err)
	}
	if lic.Lost != held {
		t.Fatalf("lost = %d, want %d", lic.Lost, held)
	}
	// Service still works — it renews fresh sub-GCLs.
	renewals := env.svc.Stats().Renewals
	if _, err := env.svc.RequestToken(app, "lic"); err != nil {
		t.Fatalf("post-crash RequestToken: %v", err)
	}
	if got := env.svc.Stats().Renewals - renewals; got != 1 {
		t.Fatalf("renewals = %d, want 1 (fresh grant)", got)
	}
}

func TestReplayedSnapshotRejected(t *testing.T) {
	// Attack: save the untrusted snapshot, consume leases, shut down
	// gracefully again, then replay the older snapshot. The escrowed key
	// only matches the latest snapshot, so the replay yields a fresh tree
	// (lost leases), never the stale counters.
	env := newEnv(t, Config{TokenBatch: 1}, map[string]int64{"lic": 1000})
	if err := env.svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	app := env.app(t, "app")
	if _, err := env.svc.RequestToken(app, "lic"); err != nil {
		t.Fatalf("RequestToken: %v", err)
	}
	if err := env.svc.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stale := *env.state.Snapshot // attacker's copy
	staleDir := append([]byte(nil), env.state.DirectorySealed...)

	env.restart(t)
	// Consume many tokens, then shut down (fresh key escrowed).
	for i := 0; i < 20; i++ {
		if _, err := env.svc.RequestToken(app, "lic"); err != nil {
			t.Fatalf("RequestToken: %v", err)
		}
	}
	if err := env.svc.Shutdown(); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}

	// Replay: overwrite untrusted state with the stale copy.
	env.state.Snapshot = &stale
	env.state.DirectorySealed = staleDir
	env.restart(t)
	// The stale snapshot must NOT have restored: first request triggers a
	// fresh renewal rather than serving from replayed counters.
	renewals := env.svc.Stats().Renewals
	if _, err := env.svc.RequestToken(app, "lic"); err != nil {
		t.Fatalf("RequestToken: %v", err)
	}
	if got := env.svc.Stats().Renewals - renewals; got != 1 {
		t.Fatalf("renewals = %d, want 1 — replayed counters were served", got)
	}
}

func TestNetworkOutageDeniesRenewalButServesCache(t *testing.T) {
	link := chaos.NewLink(1, 1)
	env := newEnv(t, Config{TokenBatch: 1}, map[string]int64{"lic": 10_000})
	env.svc.deps.Remote = link.Wrap(env.remote, env.machine)
	if err := env.svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	app := env.app(t, "app")
	// First request renews over the healthy link and caches a sub-GCL.
	if _, err := env.svc.RequestToken(app, "lic"); err != nil {
		t.Fatalf("RequestToken: %v", err)
	}
	// Cut the network: cached grants keep the application running — the
	// paper's core offline story (Section 5.8).
	link.SetDown(true)
	for i := 0; i < 50; i++ {
		if _, err := env.svc.RequestToken(app, "lic"); err != nil {
			t.Fatalf("offline RequestToken %d: %v", i, err)
		}
	}
	// A license never seen before cannot be served offline.
	if err := env.remote.RegisterLicense("other", lease.CountBased, 100); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	if _, err := env.svc.RequestToken(app, "other"); !errors.Is(err, ErrLeaseDenied) {
		t.Fatalf("offline unseen license: %v", err)
	}
	if env.svc.Stats().RenewalFailures == 0 {
		t.Fatal("no renewal failure recorded during outage")
	}
}

func TestMultipleLicensesSpatialLocality(t *testing.T) {
	licenses := map[string]int64{}
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		licenses["plugin-"+id] = 10_000
	}
	env := newEnv(t, Config{TokenBatch: 1}, licenses)
	if err := env.svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	app := env.app(t, "app")
	seen := make(map[lease.ID]bool)
	var base lease.ID
	for licID := range licenses {
		tok, err := env.svc.RequestToken(app, licID)
		if err != nil {
			t.Fatalf("RequestToken(%s): %v", licID, err)
		}
		if seen[tok.LeaseID] {
			t.Fatalf("duplicate lease ID %d", tok.LeaseID)
		}
		seen[tok.LeaseID] = true
		if base == 0 {
			base = tok.LeaseID &^ 0xFF
		} else if tok.LeaseID&^0xFF != base {
			t.Fatalf("lease %d escaped the application's 256-ID block %#x", tok.LeaseID, base)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	env := newEnv(t, Config{TokenBatch: 5}, map[string]int64{
		"shared": 1_000_000, "solo-0": 100_000, "solo-1": 100_000,
		"solo-2": 100_000, "solo-3": 100_000,
	})
	if err := env.svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	apps := make([]*sgx.Enclave, 8)
	for i := range apps {
		apps[i] = env.app(t, "app")
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				licID := "shared"
				if i%2 == 0 {
					licID = "solo-" + string(rune('0'+w%4))
				}
				if _, err := env.svc.RequestToken(apps[w], licID); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got := env.svc.Stats().Requests; got != 400 {
		t.Fatalf("requests = %d, want 400", got)
	}
}

func TestMemoryBudgetHolds(t *testing.T) {
	const budget = 256 << 10
	licenses := map[string]int64{}
	for i := 0; i < 600; i++ {
		licenses[licName(i)] = 1000
	}
	env := newEnv(t, Config{TokenBatch: 1, MemoryBudget: budget}, licenses)
	if err := env.svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	app := env.app(t, "app")
	for i := 0; i < 600; i++ {
		if _, err := env.svc.RequestToken(app, licName(i)); err != nil {
			t.Fatalf("RequestToken(%d): %v", i, err)
		}
	}
	if got := env.svc.TreeFootprint(); got > budget {
		t.Fatalf("tree footprint %d exceeds budget %d", got, budget)
	}
}

func licName(i int) string {
	return "lic-" + string(rune('a'+i/26%26)) + string(rune('a'+i%26)) + string(rune('0'+i/676))
}

func TestNewRejectsBadDeps(t *testing.T) {
	if _, err := New(Config{}, Deps{}); err == nil {
		t.Fatal("nil deps accepted")
	}
	m1, err := sgx.NewMachine(sgx.MachineConfig{EPCBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sgx.NewMachine(sgx.MachineConfig{EPCBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	plat, err := attest.NewPlatform("p", m2)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := slremote.NewServer(slremote.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}, Deps{Machine: m1, Platform: plat, Remote: remote}); err == nil {
		t.Fatal("mismatched platform accepted")
	}
}

func TestDirectoryRoundTripProperty(t *testing.T) {
	f := func(keys []string, ids []uint32, nextBlk uint32) bool {
		dir := make(map[string]lease.ID)
		for i, k := range keys {
			if len(k) > 100 {
				k = k[:100]
			}
			if i < len(ids) {
				dir[k] = lease.ID(ids[i])
			} else {
				dir[k] = lease.ID(i)
			}
		}
		buf := encodeDirectory(dir, nextBlk)
		got, gotBlk, err := decodeDirectory(buf)
		if err != nil || gotBlk != nextBlk || len(got) != len(dir) {
			return false
		}
		for k, v := range dir {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDirectoryRejectsGarbage(t *testing.T) {
	if _, _, err := decodeDirectory(nil); err == nil {
		t.Fatal("nil accepted")
	}
	buf := encodeDirectory(map[string]lease.ID{"k": 1}, 2)
	if _, _, err := decodeDirectory(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated accepted")
	}
	if _, _, err := decodeDirectory(append(buf, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func BenchmarkRequestTokenBatched(b *testing.B) {
	benchRequest(b, 10)
}

func BenchmarkRequestTokenUnbatched(b *testing.B) {
	benchRequest(b, 1)
}

func benchRequest(b *testing.B, batch int) {
	m, err := sgx.NewMachine(sgx.MachineConfig{EPCBytes: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	plat, err := attest.NewPlatform("bench", m)
	if err != nil {
		b.Fatal(err)
	}
	remote, err := slremote.NewServer(slremote.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := remote.RegisterLicense("lic", lease.CountBased, 1<<40); err != nil {
		b.Fatal(err)
	}
	svc, err := New(Config{TokenBatch: batch}, Deps{Machine: m, Platform: plat, Remote: remote})
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.Init(); err != nil {
		b.Fatal(err)
	}
	app, err := m.CreateEnclave("app", []byte("app"), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.RequestToken(app, "lic"); err != nil {
			b.Fatal(err)
		}
	}
}
