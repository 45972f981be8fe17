package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/lease"
	"repro/internal/slmanager"
)

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func TestSystemLifecycle(t *testing.T) {
	sys := newSystem(t, Config{})
	if !sys.Running() {
		t.Fatal("system not running after NewSystem")
	}
	if sys.Machine() == nil || sys.Remote() == nil || sys.Local() == nil {
		t.Fatal("missing components")
	}
	if err := sys.RegisterLicense("lic", lease.CountBased, 1000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	app, err := sys.LaunchApp("demo")
	if err != nil {
		t.Fatalf("LaunchApp: %v", err)
	}
	if sys.App("demo") != app || sys.App("ghost") != nil {
		t.Fatal("App lookup wrong")
	}
	app.Guard("render", "lic")
	ran := false
	if err := app.Execute("render", func() error { ran = true; return nil }); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !ran {
		t.Fatal("key function did not run")
	}
	if err := app.Authorize("lic"); err != nil {
		t.Fatalf("Authorize: %v", err)
	}
	if app.Name() != "demo" || app.Enclave() == nil || app.Manager() == nil {
		t.Fatal("app accessors wrong")
	}
}

func TestLaunchAppValidation(t *testing.T) {
	sys := newSystem(t, Config{})
	if _, err := sys.LaunchApp(""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := sys.LaunchApp("a"); err != nil {
		t.Fatalf("LaunchApp: %v", err)
	}
	if _, err := sys.LaunchApp("a"); err == nil {
		t.Fatal("duplicate app accepted")
	}
}

func TestShutdownRestartPreservesLeases(t *testing.T) {
	sys := newSystem(t, Config{})
	if err := sys.RegisterLicense("lic", lease.CountBased, 1000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	app, err := sys.LaunchApp("demo")
	if err != nil {
		t.Fatalf("LaunchApp: %v", err)
	}
	app.Guard("f", "lic")
	if err := app.Execute("f", nil); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	slid := sys.Local().SLID()
	outstanding := sys.Remote().Outstanding(slid, "lic")
	if outstanding == 0 {
		t.Fatal("no outstanding leases")
	}
	renewals := sys.Local().Stats().Renewals
	if err := sys.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if sys.Running() {
		t.Fatal("still running after Shutdown")
	}
	if err := sys.Shutdown(); err == nil {
		t.Fatal("double Shutdown accepted")
	}
	if _, err := sys.LaunchApp("late"); err == nil {
		t.Fatal("LaunchApp while down accepted")
	}
	if err := sys.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := sys.Restart(); err == nil {
		t.Fatal("double Restart accepted")
	}
	// Same SLID, leases intact.
	if got := sys.Local().SLID(); got != slid {
		t.Fatalf("SLID changed: %q → %q", slid, got)
	}
	if got := sys.Remote().Outstanding(slid, "lic"); got != outstanding {
		t.Fatalf("outstanding changed: %d → %d", outstanding, got)
	}
	// Apps must be relaunched after restart.
	app2, err := sys.LaunchApp("demo")
	if err != nil {
		t.Fatalf("relaunch: %v", err)
	}
	app2.Guard("f", "lic")
	if err := app2.Execute("f", nil); err != nil {
		t.Fatalf("post-restart Execute: %v", err)
	}
	// The restored tree serves the check: no renewal across the restart.
	if got := sys.Local().Stats().Renewals; got != renewals {
		t.Fatalf("renewals %d before the graceful restart, %d after; want no new one", renewals, got)
	}
}

func TestCrashForfeits(t *testing.T) {
	sys := newSystem(t, Config{})
	if err := sys.RegisterLicense("lic", lease.CountBased, 1000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	app, err := sys.LaunchApp("demo")
	if err != nil {
		t.Fatalf("LaunchApp: %v", err)
	}
	app.Guard("f", "lic")
	if err := app.Execute("f", nil); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	slid := sys.Local().SLID()
	held := sys.Remote().Outstanding(slid, "lic")
	sys.Crash()
	sys.Crash() // idempotent
	if sys.Running() {
		t.Fatal("running after crash")
	}
	if err := sys.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	lic, err := sys.Remote().License("lic")
	if err != nil {
		t.Fatalf("License: %v", err)
	}
	if lic.Lost != held {
		t.Fatalf("lost = %d, want %d", lic.Lost, held)
	}
}

func TestDenialWithoutLicense(t *testing.T) {
	sys := newSystem(t, Config{})
	app, err := sys.LaunchApp("demo")
	if err != nil {
		t.Fatalf("LaunchApp: %v", err)
	}
	app.Guard("f", "lic-unregistered")
	if err := app.Execute("f", nil); !errors.Is(err, slmanager.ErrNoLease) {
		t.Fatalf("unlicensed Execute: %v", err)
	}
}

func TestNetworkedSystemSurvivesOutage(t *testing.T) {
	link := chaos.NewLink(1, 1)
	sys := newSystem(t, Config{Network: link})
	if err := sys.RegisterLicense("lic", lease.CountBased, 100_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	app, err := sys.LaunchApp("demo")
	if err != nil {
		t.Fatalf("LaunchApp: %v", err)
	}
	app.Guard("f", "lic")
	if err := app.Execute("f", nil); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	link.SetDown(true)
	// Cached sub-GCL keeps the app running offline.
	for i := 0; i < 100; i++ {
		if err := app.Execute("f", nil); err != nil {
			t.Fatalf("offline Execute %d: %v", i, err)
		}
	}
}

func TestConcurrentAppsShareLocal(t *testing.T) {
	sys := newSystem(t, Config{})
	for _, lic := range []string{"lic-a", "lic-b", "lic-c", "lic-d"} {
		if err := sys.RegisterLicense(lic, lease.CountBased, 1_000_000); err != nil {
			t.Fatalf("RegisterLicense: %v", err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i, lic := range []string{"lic-a", "lic-b", "lic-c", "lic-d"} {
		app, err := sys.LaunchApp("app-" + lic)
		if err != nil {
			t.Fatalf("LaunchApp: %v", err)
		}
		app.Guard("f", lic)
		wg.Add(1)
		go func(i int, app *App) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if err := app.Execute("f", nil); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, app)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
	}
}

func TestCustomEPCAndBadConfig(t *testing.T) {
	sys := newSystem(t, Config{EPCBytes: 4 << 20})
	if got := sys.Machine().EPCCapacityPages(); got != (4<<20)/4096 {
		t.Fatalf("EPC pages = %d", got)
	}
	if _, err := NewSystem(Config{EPCBytes: 1}); err == nil {
		t.Fatal("sub-page EPC accepted")
	}
}
