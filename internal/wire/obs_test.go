package wire

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/ratls"
)

// startInstrumentedDeployment is startDeployment plus obs instrumentation
// and an optional preDispatch hook.
func startInstrumentedDeployment(t *testing.T, reg *obs.Registry, tr *obs.Tracer, preDispatch func(Envelope)) *testDeployment {
	t.Helper()
	return serveDeployment(t, listen(t), nil, func(srv *Server) {
		srv.ExposeMetrics(reg, tr)
		srv.preDispatch = preDispatch
	})
}

func TestWireMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	d := startInstrumentedDeployment(t, reg, tr, nil)

	client, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	client.ExposeMetrics(reg, nil)

	if err := d.remote.RegisterLicense("lic", lease.CountBased, 100); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	if _, err := client.LicenseInfo("lic"); err != nil {
		t.Fatalf("LicenseInfo: %v", err)
	}
	// An unknown license is answered with an error envelope: a server-side
	// RPC error, but not a client transport error.
	if _, err := client.LicenseInfo("ghost"); !errors.Is(err, ErrRemote) {
		t.Fatalf("LicenseInfo ghost: %v", err)
	}
	if _, err := client.RenewLease("ghost", "lic"); !errors.Is(err, ErrRemote) {
		t.Fatalf("RenewLease ghost: %v", err)
	}

	// The server records an RPC's metrics and ends its span just after
	// writing the reply, so the client can read a reply before either
	// lands. Wait for the three spans before reading the metrics.
	waitFor(t, "two license_info spans and one renew span", func() bool {
		names := make(map[string]int)
		for _, ev := range tr.Events() {
			names[ev.Name]++
		}
		return names["rpc."+TypeLicenseInfo] == 2 && names["rpc."+TypeRenew] == 1
	})

	snap := reg.Snapshot()
	infolbl := map[string]string{"type": TypeLicenseInfo}
	renewlbl := map[string]string{"type": TypeRenew}
	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"wire_client_rpcs_total", infolbl, 2},
		{"wire_client_rpcs_total", renewlbl, 1},
		{"wire_client_rpc_latency_seconds_count", renewlbl, 1},
		{"wire_client_rpc_errors_total", renewlbl, 0},
		{"wire_server_rpcs_total", infolbl, 2},
		{"wire_server_rpcs_total", renewlbl, 1},
		{"wire_server_rpc_errors_total", infolbl, 1},
		{"wire_server_rpc_latency_seconds_count", infolbl, 2},
	}
	for _, c := range checks {
		if got := snap.Get(c.name, c.labels); got != c.want {
			t.Errorf("%s = %v, want %v", obs.Key(c.name, c.labels), got, c.want)
		}
	}
	for _, name := range []string{
		"wire_client_bytes_sent_total", "wire_client_bytes_received_total",
		"wire_server_bytes_received_total", "wire_server_bytes_sent_total",
	} {
		if got := snap.Get(name, nil); got <= 0 {
			t.Errorf("%s = %v, want > 0", name, got)
		}
	}
}

func TestServerRecoversHandlerPanic(t *testing.T) {
	reg := obs.NewRegistry()
	d := startInstrumentedDeployment(t, reg, nil, func(env Envelope) {
		if env.Type == TypeRenew {
			panic("injected handler panic")
		}
	})
	if err := d.remote.RegisterLicense("lic", lease.CountBased, 10); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}

	client, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	_, err = client.RenewLease("sl-x", "lic")
	if err == nil {
		t.Fatal("panicking handler returned success")
	}
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "internal error") {
		t.Fatalf("panic reply = %v, want remote internal error", err)
	}
	// The connection survives the panic: the same client keeps working.
	if _, err := client.LicenseInfo("lic"); err != nil {
		t.Fatalf("RPC after panic: %v", err)
	}
	if got := reg.Snapshot().Get("wire_server_handler_panics_total", nil); got != 1 {
		t.Fatalf("handler panics = %v, want 1", got)
	}
}

func TestRoundTripDeadline(t *testing.T) {
	// A server that accepts and reads but never replies: without the
	// per-roundtrip deadline the client would block forever.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 1024)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()

	client, err := DialPolicy(ln.Addr().String(), 150*time.Millisecond, ratls.Insecure(), DefaultRetryPolicy(1))
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer client.Close()

	start := time.Now()
	_, err = client.LicenseInfo("lic")
	if err == nil {
		t.Fatal("round trip against a mute server succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v, want ~150ms", elapsed)
	}
}

func TestDialRetriesTransientFailure(t *testing.T) {
	// Grab a port with nothing listening: connect gets refused, which is
	// transient, so DialPolicy spends every configured attempt before
	// giving up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	policy := RetryPolicy{Attempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond, Seed: 1}
	_, err = DialPolicy(addr, 500*time.Millisecond, ratls.Insecure(), policy)
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}
