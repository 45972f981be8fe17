// Package integration holds cross-component scenarios: the full
// SecureLease stack under failure injection — flaky networks, EPC
// pressure from co-tenant enclaves, crashes mid-traffic, server loss —
// plus an end-to-end "paper pipeline" test that goes from an instrumented
// workload run through partitioning to a CFB attack on the result.
package integration

import (
	"errors"
	"net"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/attest"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/partition"
	"repro/internal/ratls"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// TestFlakyNetworkRenewalsEventuallySucceed drives license checks over a
// 40%-loss link: individual renewals fail, retries and cached sub-GCLs
// keep the application running to completion.
func TestFlakyNetworkRenewalsEventuallySucceed(t *testing.T) {
	sys, err := core.NewSystem(core.Config{
		MachineName: "flaky",
		Network:     chaos.NewLink(0.6, 99),
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.RegisterLicense("lic", lease.CountBased, 50_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	app, err := sys.LaunchApp("app")
	if err != nil {
		t.Fatalf("LaunchApp: %v", err)
	}
	app.Guard("f", "lic")
	served, transientFailures := 0, 0
	for served < 2000 {
		if err := app.Execute("f", func() error { return nil }); err != nil {
			transientFailures++
			if transientFailures > 200 {
				t.Fatalf("too many failures (%d served): %v", served, err)
			}
			continue
		}
		served++
	}
	t.Logf("served %d checks with %d transient failures over a 60%% link", served, transientFailures)
}

// TestEPCPressureFromCoTenants runs SL-Local while a co-tenant enclave
// floods the EPC: SL-Local's lease tree keeps functioning (its pages fault
// back transparently) and the token path stays correct.
func TestEPCPressureFromCoTenants(t *testing.T) {
	m, err := sgx.NewMachine(sgx.MachineConfig{Name: "pressured", EPCBytes: 2 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	plat, err := attest.NewPlatform("pressured", m)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	remote, err := slremote.NewServer(slremote.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := remote.RegisterLicense("lic", lease.CountBased, 100_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	svc, err := sllocal.New(sllocal.Config{TokenBatch: 5, TreePages: 64}, sllocal.Deps{
		Machine: m, Platform: plat, Remote: remote,
	})
	if err != nil {
		t.Fatalf("sllocal.New: %v", err)
	}
	if err := svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	// A co-tenant grabs and churns most of the EPC.
	hog, err := m.CreateEnclave("hog", []byte("hog"), 0)
	if err != nil {
		t.Fatalf("hog: %v", err)
	}
	hogPages, err := hog.AllocPages(480) // 480 of the 512 EPC pages
	if err != nil {
		t.Fatalf("hog alloc: %v", err)
	}
	app, err := m.CreateEnclave("app", []byte("app"), 0)
	if err != nil {
		t.Fatalf("app: %v", err)
	}
	for i := 0; i < 300; i++ {
		if _, err := svc.RequestToken(app, "lic"); err != nil {
			t.Fatalf("RequestToken %d under pressure: %v", i, err)
		}
		if _, err := hog.Touch(hogPages[i%len(hogPages)]); err != nil {
			t.Fatalf("hog touch: %v", err)
		}
	}
	if m.Stats().PageEvicts == 0 {
		t.Fatal("no EPC churn despite co-tenant pressure")
	}
}

// TestCrashDuringConcurrentTraffic crashes SL-Local while eight apps are
// mid-request: in-flight requests fail cleanly (no hangs, no panics), and
// the forfeiture accounting is consistent afterwards.
func TestCrashDuringConcurrentTraffic(t *testing.T) {
	sys, err := core.NewSystem(core.Config{MachineName: "crashbox"})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.RegisterLicense("lic", lease.CountBased, 1_000_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	apps := make([]*core.App, 8)
	for i := range apps {
		app, err := sys.LaunchApp(string(rune('a' + i)))
		if err != nil {
			t.Fatalf("LaunchApp: %v", err)
		}
		app.Guard("f", "lic")
		apps[i] = app
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, app := range apps {
		wg.Add(1)
		go func(app *core.App) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once the crash lands; they must be
				// clean errors, not panics.
				_ = app.Execute("f", func() error { return nil })
			}
		}(app)
	}
	slid := sys.Local().SLID()
	sys.Crash()
	close(stop)
	wg.Wait()

	if err := sys.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	lic, err := sys.Remote().License("lic")
	if err != nil {
		t.Fatalf("License: %v", err)
	}
	if got := sys.Remote().Outstanding(slid, "lic"); got != 0 {
		t.Fatalf("outstanding after crash restart = %d", got)
	}
	granted := 1_000_000 - lic.Remaining
	if lic.Lost > granted {
		t.Fatalf("lost %d exceeds granted %d", lic.Lost, granted)
	}
}

// TestServerLossMidSession kills the TCP license server while a client is
// live: cached grants keep serving, renewals fail cleanly, and a fresh
// server (same escrow state lost) forces re-initialization semantics.
func TestServerLossMidSession(t *testing.T) {
	service := attest.NewService()
	remote, err := slremote.NewServer(slremote.DefaultConfig(), service)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := remote.RegisterLicense("lic", lease.CountBased, 100_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	srv, err := wire.NewServer(remote, nil, ratls.Insecure(), nil, nil, nil)
	if err != nil {
		t.Fatalf("wire.NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()

	m, err := sgx.NewMachine(sgx.MachineConfig{Name: "client", EPCBytes: 8 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	plat, err := attest.NewPlatform("client", m)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	service.RegisterPlatform(plat)
	service.TrustMeasurement(sgx.MeasurementOf(sllocal.EnclaveCodeIdentity))

	client, err := wire.Dial(ln.Addr().String(), ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	svc, err := sllocal.New(sllocal.Config{TokenBatch: 10}, sllocal.Deps{
		Machine: m, Platform: plat, Remote: client,
	})
	if err != nil {
		t.Fatalf("sllocal.New: %v", err)
	}
	if err := svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	app, err := m.CreateEnclave("app", []byte("app"), 0)
	if err != nil {
		t.Fatalf("app: %v", err)
	}
	if _, err := svc.RequestToken(app, "lic"); err != nil {
		t.Fatalf("RequestToken: %v", err)
	}

	// Kill the server.
	srv.Close()
	<-done

	// Cached sub-GCL keeps serving.
	servedOffline := 0
	for i := 0; i < 100; i++ {
		if _, err := svc.RequestToken(app, "lic"); err != nil {
			break
		}
		servedOffline++
	}
	if servedOffline == 0 {
		t.Fatal("no offline service from cached grants after server loss")
	}
	// Exhausting the cache surfaces a clean denial (connection is dead).
	var lastErr error
	for i := 0; i < 100_000; i++ {
		if _, err := svc.RequestToken(app, "lic"); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil {
		t.Fatal("service never failed despite a dead server")
	}
	if !errors.Is(lastErr, sllocal.ErrLeaseDenied) {
		t.Fatalf("denial error = %v", lastErr)
	}
}

// TestPaperPipelineEndToEnd runs the whole reproduction pipeline on one
// workload: instrumented run → SecureLease partition → deploy the
// partitioned app on a machine with SL-Local → verify a CFB attack fails
// while licensed use works.
func TestPaperPipelineEndToEnd(t *testing.T) {
	// 1. Profile the workload.
	spec, err := workloads.Get("hashjoin")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := spec.Run(1)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}

	// 2. Partition it.
	p, err := partition.SecureLease(prof.Graph, prof.Trace, partition.Options{Seed: 7})
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if !p.Migrated["hashjoin.probe"] {
		t.Fatal("key function not migrated")
	}

	// 3. Deploy: the partitioned app's secure region is guarded by an
	// SL-Manager against a real license.
	sys, err := core.NewSystem(core.Config{MachineName: "deploy"})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.RegisterLicense(spec.License, lease.CountBased, 10_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	app, err := sys.LaunchApp("hashjoin")
	if err != nil {
		t.Fatalf("LaunchApp: %v", err)
	}
	for _, fn := range p.MigratedList() {
		app.Guard(fn, spec.License)
	}

	// 4. Licensed use of the key function works.
	if err := app.Execute("hashjoin.probe", func() error { return nil }); err != nil {
		t.Fatalf("licensed execute: %v", err)
	}

	// 5. The CFB attacker (no license on their manager) is handicapped.
	pirateApp, err := sys.LaunchApp("pirate-hashjoin")
	if err != nil {
		t.Fatalf("LaunchApp: %v", err)
	}
	pirateApp.Guard("hashjoin.probe", "lic-stolen-unregistered")
	gate := attack.GateFunc(func(fn string) error {
		return pirateApp.Authorize("lic-stolen-unregistered")
	})
	ref, err := attack.ReferenceOutput(attack.SecureLeaseSGX)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := attack.NewVCPU(attack.NewMySQLModel(attack.SecureLeaseSGX, false), gate,
		attack.Tamper{FlipBranches: map[string]bool{"auth_check": true}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cpu.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FullyFunctional(ref) {
		t.Fatal("CFB attack succeeded against the deployed stack")
	}
	if res.EnclaveDenials == 0 {
		t.Fatal("no enclave denials recorded")
	}
}

// TestTwoClientsShareLicenseOverTCP runs two independent client machines
// against one wire server: Algorithm 1's concurrency split (C=2) applies,
// both serve checks, and the pool is never oversubscribed.
func TestTwoClientsShareLicenseOverTCP(t *testing.T) {
	service := attest.NewService()
	remote, err := slremote.NewServer(slremote.DefaultConfig(), service)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	const pool = 20_000
	if err := remote.RegisterLicense("lic", lease.CountBased, pool); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	srv, err := wire.NewServer(remote, nil, ratls.Insecure(), nil, nil, nil)
	if err != nil {
		t.Fatalf("wire.NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})

	type clientNode struct {
		svc *sllocal.Service
		app *sgx.Enclave
	}
	mkClient := func(name string) *clientNode {
		m, err := sgx.NewMachine(sgx.MachineConfig{Name: name, EPCBytes: 8 << 20})
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		plat, err := attest.NewPlatform(name, m)
		if err != nil {
			t.Fatalf("NewPlatform: %v", err)
		}
		service.RegisterPlatform(plat)
		service.TrustMeasurement(sgx.MeasurementOf(sllocal.EnclaveCodeIdentity))
		cl, err := wire.Dial(ln.Addr().String(), ratls.Insecure())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		svc, err := sllocal.New(sllocal.Config{TokenBatch: 10}, sllocal.Deps{
			Machine: m, Platform: plat, Remote: cl,
		})
		if err != nil {
			t.Fatalf("sllocal.New: %v", err)
		}
		if err := svc.Init(); err != nil {
			t.Fatalf("Init: %v", err)
		}
		app, err := m.CreateEnclave("app", []byte("app"), 0)
		if err != nil {
			t.Fatalf("app: %v", err)
		}
		return &clientNode{svc: svc, app: app}
	}

	a := mkClient("client-a")
	b := mkClient("client-b")
	if a.svc.SLID() == b.svc.SLID() {
		t.Fatal("both clients share an SLID")
	}

	var wg sync.WaitGroup
	served := make([]int, 2)
	for i, n := range []*clientNode{a, b} {
		wg.Add(1)
		go func(i int, n *clientNode) {
			defer wg.Done()
			for {
				tok, err := n.svc.RequestToken(n.app, "lic")
				if err != nil {
					return // pool drained
				}
				for tok.Use() {
					served[i]++
				}
				if served[i] >= pool {
					return
				}
			}
		}(i, n)
	}
	wg.Wait()

	total := served[0] + served[1]
	if total == 0 {
		t.Fatal("nothing served")
	}
	if int64(total) > pool {
		t.Fatalf("served %d from a %d pool", total, pool)
	}
	if served[0] == 0 || served[1] == 0 {
		t.Fatalf("one client starved: %v (Algorithm 1 should split the pool)", served)
	}
	lic, err := remote.License("lic")
	if err != nil {
		t.Fatalf("License: %v", err)
	}
	if lic.Remaining < 0 {
		t.Fatalf("negative remaining %d", lic.Remaining)
	}
}
