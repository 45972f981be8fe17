// Quickstart: license-protect one application end to end.
//
// This example stands up a complete SecureLease deployment on one machine
// (simulated SGX, SL-Remote, SL-Local), registers a count-based license,
// launches an application whose key function is guarded, runs it within
// its budget, exhausts the license, and shows the denial — then
// demonstrates the graceful shutdown / restore cycle.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// One call wires the whole deployment: machine, attestation,
	// SL-Remote, SL-Local (already initialized: remote-attested, SLID
	// assigned).
	sys, err := core.NewSystem(core.Config{MachineName: "workstation"})
	if err != nil {
		return err
	}
	fmt.Printf("SL-Local initialized as %q\n", sys.Local().SLID())

	// Observe the deployment through the same metrics the daemons export
	// on -metrics-addr: a registry over the machine, SL-Local, and
	// SL-Remote, dumped in Prometheus text form at the end.
	metrics := obs.NewRegistry()
	sys.Machine().ExposeMetrics(metrics)
	sys.Local().ExposeMetrics(metrics, nil)
	sys.Remote().ExposeMetrics(metrics)

	// The vendor registers a 40-execution license for the report add-on.
	const license = "lic-report-addon"
	if err := sys.RegisterLicense(license, lease.CountBased, 40); err != nil {
		return err
	}

	// The application guards its key function — the renderer without
	// which the add-on is useless — behind that license.
	app, err := sys.LaunchApp("report-tool")
	if err != nil {
		return err
	}
	app.Guard("render_report", license)

	// Use the add-on: every Execute consumes one lease grant; SL-Local
	// serves them locally from its cached sub-GCL (no network, no remote
	// attestation per check).
	rendered := 0
	for i := 0; i < 20; i++ {
		err := app.Execute("render_report", func() error {
			rendered++
			return nil
		})
		if err != nil {
			return fmt.Errorf("render %d: %w", i, err)
		}
	}
	fmt.Printf("rendered %d reports; SL-Local stats: %+v\n", rendered, sys.Local().Stats())

	// Graceful shutdown: the lease tree is committed, the root key is
	// escrowed with SL-Remote; a restart restores every counter.
	if err := sys.Shutdown(); err != nil {
		return err
	}
	if err := sys.Restart(); err != nil {
		return err
	}
	app, err = sys.LaunchApp("report-tool")
	if err != nil {
		return err
	}
	app.Guard("render_report", license)
	fmt.Println("restarted: lease counters restored from the committed tree")

	// Burn through the rest of the license.
	for {
		if err := app.Execute("render_report", func() error {
			rendered++
			return nil
		}); err != nil {
			fmt.Printf("after %d total renders the lease is exhausted: %v\n", rendered, err)
			break
		}
		if rendered > 100 {
			return errors.New("license never expired — counting is broken")
		}
	}
	if rendered != 40 {
		return fmt.Errorf("rendered %d, want exactly the licensed 40", rendered)
	}
	fmt.Println("exactly the licensed 40 executions were allowed — SecureLease enforced the count across a restart")

	fmt.Println("\nfinal metrics (/metrics exposition):")
	if err := metrics.WritePrometheus(os.Stdout); err != nil {
		return err
	}
	return nil
}
