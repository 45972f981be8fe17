package main

import (
	"bytes"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/ratls"
	"repro/internal/slremote"
)

const waitLimit = 30 * time.Second

// startRemote serves an in-memory, plaintext SL-Remote holding license
// "demo", deep enough that no workload here exhausts it.
func startRemote(t *testing.T) *cluster.Node {
	t.Helper()
	n, err := cluster.StartNode(cluster.NodeOptions{Config: slremote.DefaultConfig(), Channel: ratls.Insecure()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Kill)
	if err := n.Remote().RegisterLicense("demo", lease.CountBased, 1<<40); err != nil {
		t.Fatal(err)
	}
	return n
}

// daemon is one sl-local run in-process, with a stop channel where the
// binary has SIGINT/SIGTERM and an observability endpoint on metricsAddr.
type daemon struct {
	t           *testing.T
	stop        chan os.Signal
	done        chan error
	metricsAddr string
}

func startDaemon(t *testing.T, remote string, args ...string) *daemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, stop: make(chan os.Signal, 1), done: make(chan error, 1), metricsAddr: ln.Addr().String()}
	ln.Close()
	args = append([]string{"-remote", remote, "-insecure", "-license", "demo", "-metrics-addr", d.metricsAddr}, args...)
	go func() { d.done <- run(flag.NewFlagSet("sl-local", flag.ContinueOnError), args, d.stop) }()
	return d
}

// metric reads one of the daemon's sllocal_* series (labeled by the
// default -name) off its export exposition, waiting for the endpoint to
// come up.
func (d *daemon) metric(name string) float64 {
	d.t.Helper()
	for deadline := time.Now().Add(waitLimit); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get("http://" + d.metricsAddr + "/metrics?format=export")
		if err != nil {
			if time.Now().After(deadline) {
				d.t.Fatalf("scraping sl-local: %v", err)
			}
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			d.t.Fatal(err)
		}
		fams, err := obs.ReadExport(bytes.NewReader(body))
		if err != nil {
			d.t.Fatalf("sl-local export: %v", err)
		}
		return obs.Flatten(fams).Get(name, map[string]string{"machine": "client"})
	}
}

// exited sends SIGTERM and waits for run to return, which it must do
// cleanly.
func (d *daemon) exited() {
	d.t.Helper()
	d.stop <- syscall.SIGTERM
	select {
	case err := <-d.done:
		if err != nil {
			d.t.Fatalf("sl-local exit: %v", err)
		}
	case <-time.After(waitLimit):
		d.t.Fatal("sl-local did not exit")
	}
}

// escrowed waits until SL-Remote holds exactly one client and that client
// has escrowed its root key, and checks it was never treated as crashed.
func escrowed(t *testing.T, n *cluster.Node, d *daemon) {
	t.Helper()
	for deadline := time.Now().Add(waitLimit); ; time.Sleep(10 * time.Millisecond) {
		st := n.Remote().ExportState()
		if len(st.Clients) > 1 {
			t.Fatalf("SL-Remote has %d clients, want the daemon's one", len(st.Clients))
		}
		for slid, c := range st.Clients {
			if c.HasEscrow {
				if st.Stats.CrashForfeits != 0 {
					t.Errorf("client %s escrowed but crash forfeits %d", slid, st.Stats.CrashForfeits)
				}
				return
			}
		}
		select {
		case err := <-d.done:
			t.Fatalf("sl-local returned %v without escrowing", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the escrow")
		}
	}
}

// TestFullWorkloadEscrows runs the whole demo workload: the daemon
// attests, renews, escrows its root key on the way out, and its bundle
// counted the renewals.
func TestFullWorkloadEscrows(t *testing.T) {
	n := startRemote(t)
	d := startDaemon(t, n.Addr(), "-checks", "300", "-linger", "1m")
	escrowed(t, n, d)
	if got := d.metric("sllocal_renewals_total"); got <= 0 {
		t.Errorf("sllocal_renewals_total = %v after a full workload, want > 0", got)
	}
	d.exited()
}

// TestStopMidWorkloadEscrows: a stop signal in the middle of the workload
// is a graceful shutdown — the root key is escrowed and nothing is
// forfeited as a crash.
func TestStopMidWorkloadEscrows(t *testing.T) {
	n := startRemote(t)
	d := startDaemon(t, n.Addr(), "-checks", "1000000000")
	for deadline := time.Now().Add(waitLimit); d.metric("sllocal_renewals_total") == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the workload never renewed")
		}
	}
	d.exited()
	escrowed(t, n, d)
}

// TestMissingSecretRefused: without -insecure the attested default needs a
// channel secret, and the daemon refuses to start without one.
func TestMissingSecretRefused(t *testing.T) {
	err := run(flag.NewFlagSet("sl-local", flag.ContinueOnError), []string{"-remote", "127.0.0.1:1"}, nil)
	if err == nil || !strings.Contains(err.Error(), "attested by default") {
		t.Errorf("run without a secret = %v, want the attested-by-default refusal", err)
	}
}
