// Command sl-local runs a SecureLease client node: it stands up a
// simulated SGX machine, connects to a remote SL-Remote daemon over TCP,
// initializes the SL-Local lease service (remote attestation, SLID, lease
// tree restore), and then drives a demo workload of license checks so the
// end-to-end flow can be observed against a live server.
//
// The wire channel is attested by default: both daemons derive their
// channel credentials from a shared provisioning secret, so they must be
// started with the same -ratls-secret (or -ratls-secret-file). Pass
// -insecure on both to run the demo over explicit plaintext instead.
//
//	sl-remote -addr :7600 -ratls-secret swarm -license demo:count:100000 &
//	sl-local  -remote 127.0.0.1:7600 -ratls-secret swarm -license demo -checks 1000 -batch 10
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/attest"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/ratls"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
	"repro/internal/wire"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(flag.CommandLine, os.Args[1:], stop); err != nil {
		cli.Fatalf("sl-local: %v", err)
	}
}

// run is the client daemon's whole life: parse flags, attest and
// initialize, serve -checks license checks, and shut down gracefully
// (lease tree committed, root key escrowed) — also when stop fires
// mid-workload: an interrupted client is a graceful shutdown, not a crash.
func run(fs *flag.FlagSet, args []string, stop <-chan os.Signal) error {
	var (
		remoteAddr  = fs.String("remote", "127.0.0.1:7600", "SL-Remote address")
		license     = fs.String("license", "demo", "license ID to check against")
		checks      = fs.Int("checks", 1000, "number of license checks to perform")
		batch       = fs.Int("batch", 10, "tokens granted per local attestation")
		name        = fs.String("name", "client", "machine name")
		metricsAddr = fs.String("metrics-addr", "", "observability endpoint address (/metrics, /healthz, /readyz, /trace, /events); empty disables")
		pprofOn     = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the observability endpoint")
		linger      = fs.Duration("linger", 0, "keep running (and serving metrics) this long after the workload finishes")

		insecure        = fs.Bool("insecure", false, "speak explicit plaintext on the wire channel instead of the attested (RA-TLS) default; both daemons must agree")
		ratlsSecret     = fs.String("ratls-secret", "", "shared provisioning secret for the attested channel (both daemons must use the same secret)")
		ratlsSecretFile = fs.String("ratls-secret-file", "", "read the channel provisioning secret from this file instead of the command line")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	machine, err := sgx.NewMachine(sgx.MachineConfig{Name: *name})
	if err != nil {
		return err
	}
	platform, err := attest.NewPlatform(*name, machine)
	if err != nil {
		return err
	}
	rc, err := ratls.FromFlags(*insecure, *ratlsSecret, *ratlsSecretFile, *name, machine,
		sllocal.EnclaveCodeIdentity, slremote.EnclaveCodeIdentity)
	if err != nil {
		return err
	}
	client, err := wire.Dial(*remoteAddr, rc)
	if err != nil {
		return err
	}
	defer client.Close()

	svc, err := sllocal.New(sllocal.Config{TokenBatch: *batch}, sllocal.Deps{
		Machine:  machine,
		Platform: platform,
		Remote:   client,
	})
	if err != nil {
		return err
	}
	// Instrumentation is always on, in the same bundle sl-remote carries:
	// SIGQUIT dumps its event ring to stderr, and -metrics-addr serves its
	// registry and both rings.
	nodeObs := fleet.NewNodeObs("sl-local")
	defer nodeObs.DumpOnSIGQUIT()()
	machine.ExposeMetrics(nodeObs.Registry)
	svc.ExposeMetrics(nodeObs.Registry, nodeObs.Tracer)
	client.ExposeMetrics(nodeObs.Registry, nodeObs.Tracer)
	rc.ExposeMetrics(nodeObs.Registry, nodeObs.Tracer)
	rc.SetFlightRecorder(nodeObs.Flight)
	// /readyz stays 503 until attestation and Init succeed below.
	var ready atomic.Bool
	if *metricsAddr != "" {
		if err := nodeObs.Serve(*metricsAddr, obs.HandlerOptions{Ready: ready.Load, PProf: *pprofOn}); err != nil {
			return err
		}
		defer nodeObs.Close()
		fmt.Printf("sl-local: observability endpoint on %s/metrics\n", nodeObs.URL())
	}
	start := time.Now()
	if err := svc.Init(); err != nil {
		return err
	}
	ready.Store(true)
	fmt.Printf("sl-local: initialized as %s in %v (virtual RA latency charged to the machine clock)\n",
		svc.SLID(), time.Since(start).Round(time.Millisecond))

	app, err := machine.CreateEnclave("demo-app", []byte("demo-app"), 0)
	if err != nil {
		return err
	}

	// A stop signal ends the workload early; the shutdown path below
	// still runs, so the lease tree is committed and the root key escrowed.
	issued := 0
	vStart := machine.Clock().Now()
	rasBefore := machine.Stats().RemoteAttests
workload:
	for issued < *checks {
		select {
		case sig := <-stop:
			fmt.Printf("sl-local: %v after %d checks: shutting down gracefully\n", sig, issued)
			break workload
		default:
		}
		tok, err := svc.RequestToken(app, *license)
		if err != nil {
			return fmt.Errorf("after %d checks: %w", issued, err)
		}
		for tok.Use() && issued < *checks {
			issued++
		}
	}
	vElapsed := machine.Clock().Elapsed(vStart, machine.Model())
	st := svc.Stats()
	ms := machine.Stats()
	fmt.Printf("sl-local: %d checks served — %d local attestations, %d renewals, %d remote attestations\n",
		issued, st.LocalAttests, st.Renewals, ms.RemoteAttests)
	loopRAs := ms.RemoteAttests - rasBefore
	fmt.Printf("sl-local: virtual time for the lease path: %v (%.2f µs/check excluding RAs)\n",
		vElapsed.Round(time.Millisecond),
		float64(vElapsed.Microseconds()-loopRAs*3_500_000)/float64(issued))

	nodeObs.Flight.Mark("sllocal.shutdown", "slid", svc.SLID(), "checks", strconv.Itoa(issued))
	if err := svc.Shutdown(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("sl-local: graceful shutdown complete (lease tree committed, root key escrowed)")
	if *linger > 0 {
		fmt.Printf("sl-local: lingering %v for metric scrapes\n", *linger)
		select {
		case <-time.After(*linger):
		case sig := <-stop:
			fmt.Printf("sl-local: %v: linger cut short\n", sig)
		}
	}
	return nil
}
