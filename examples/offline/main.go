// Offline: running through network outages on pre-distributed leases.
//
// This example demonstrates the paper's adaptive lease pre-distribution
// (Section 5.3): SL-Remote sizes each client's sub-GCL using its health h,
// network reliability n, and the per-license expected-loss bound τ. A
// healthy client on a flaky link receives a *larger* sub-lease (the 1/n
// compensation of Algorithm 1, line 7), so it keeps serving its
// applications locally through an extended outage — and a crash forfeits
// everything, bounding what an attacker could gain by crash-replaying.
//
//	go run ./examples/offline
package main

import (
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/lease"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "offline:", err)
		os.Exit(1)
	}
}

func run() error {
	// A client behind a link that drops 30% of messages.
	link := chaos.NewLink(0.7, 42)
	sys, err := core.NewSystem(core.Config{
		MachineName: "field-laptop",
		Network:     link,
	})
	if err != nil {
		return err
	}
	const license = "lic-field-suite"
	if err := sys.RegisterLicense(license, lease.CountBased, 100_000); err != nil {
		return err
	}
	slid := sys.Local().SLID()

	// Tell SL-Remote this client is healthy but on a bad network: the
	// Algorithm 1 inputs (in a deployment the server measures these).
	if err := sys.Remote().SetClientProfile(slid, 0.98, 0.7, 1.0); err != nil {
		return err
	}

	app, err := sys.LaunchApp("field-suite")
	if err != nil {
		return err
	}
	app.Guard("analyze", license)

	// First use fetches a sub-GCL; the network benefit makes it generous.
	if err := app.Execute("analyze", func() error { return nil }); err != nil {
		return err
	}
	granted := sys.Remote().Outstanding(slid, license)
	fmt.Printf("sub-GCL pre-distributed to the flaky client: %d units\n", granted)
	fmt.Println("(Algorithm 1 compensates reliable-but-disconnected clients with 1/n)")

	// Total outage: the link goes down. The cached sub-GCL keeps the
	// application running.
	link.SetDown(true)
	served := 0
	for i := 0; i < 2000; i++ {
		if err := app.Execute("analyze", func() error { return nil }); err != nil {
			break
		}
		served++
	}
	fmt.Printf("served %d license checks fully offline\n", served)
	if served < 1000 {
		return fmt.Errorf("offline service collapsed after %d checks", served)
	}

	// The link heals; service continues seamlessly with renewals.
	link.SetDown(false)
	for i := 0; i < 500; i++ {
		if err := app.Execute("analyze", func() error { return nil }); err != nil {
			return fmt.Errorf("post-outage check %d: %w", i, err)
		}
	}
	fmt.Println("link healed: renewals resumed transparently")

	// Crash economics: a crash forfeits the outstanding units — this is
	// the expected loss that τ bounds across the fleet.
	before := sys.Remote().Outstanding(slid, license)
	sys.Crash()
	if err := sys.Restart(); err != nil {
		return err
	}
	lic, err := sys.Remote().License(license)
	if err != nil {
		return err
	}
	fmt.Printf("crash forfeited %d outstanding units (recorded loss: %d; τ bounds its expectation at %.0f)\n",
		before, lic.Lost, lic.Tau)
	return nil
}
