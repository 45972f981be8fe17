package wire

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/ratls"
)

func TestShutdownDrainsIdleConnections(t *testing.T) {
	reg := obs.NewRegistry()
	d := startInstrumentedDeployment(t, reg, nil, nil)

	if err := d.remote.RegisterLicense("warm", lease.CountBased, 10); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	// Two idle clients: connected, no envelope in flight. Each looks a
	// license up so the connection is proven live before the drain starts.
	for i := 0; i < 2; i++ {
		c, err := Dial(d.addr, ratls.Insecure())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		if _, err := c.LicenseInfo("warm"); err != nil {
			t.Fatalf("LicenseInfo: %v", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.server.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-d.done

	if got := d.server.drained.Load(); got != 2 {
		t.Errorf("drained = %d, want 2", got)
	}
	if got := d.server.aborted.Load(); got != 0 {
		t.Errorf("aborted = %d, want 0", got)
	}
	snap := reg.Snapshot()
	if v := snap[obs.Key("wire_server_shutdown_drained_total", nil)]; v != 2 {
		t.Errorf("wire_server_shutdown_drained_total = %v, want 2", v)
	}
}

func TestShutdownWaitsForInFlightEnvelope(t *testing.T) {
	release := make(chan struct{})
	var entered sync.Once
	inHandler := make(chan struct{})
	d := startInstrumentedDeployment(t, obs.NewRegistry(), nil, func(Envelope) {
		entered.Do(func() { close(inHandler) })
		<-release
	})
	if err := d.remote.RegisterLicense("slow", lease.CountBased, 10); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}

	c, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// Fire a request that blocks inside the handler, then shut down while
	// it is in flight.
	reqDone := make(chan error, 1)
	go func() {
		_, err := c.LicenseInfo("slow")
		reqDone <- err
	}()
	<-inHandler

	shutDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutDone <- d.server.Shutdown(ctx) }()

	// The drain must not finish while the envelope is still in the handler.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned %v with an envelope in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-reqDone; err != nil {
		t.Errorf("in-flight request failed across drain: %v", err)
	}
	if got := d.server.drained.Load(); got != 1 {
		t.Errorf("drained = %d, want 1", got)
	}
	if got := d.server.aborted.Load(); got != 0 {
		t.Errorf("aborted = %d, want 0", got)
	}
}

func TestShutdownDeadlineAbortsStuckConnection(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var entered sync.Once
	inHandler := make(chan struct{})
	d := startInstrumentedDeployment(t, obs.NewRegistry(), nil, func(Envelope) {
		entered.Do(func() { close(inHandler) })
		<-release
	})

	c, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	go func() { _, _ = c.LicenseInfo("stuck") }()
	<-inHandler

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = d.server.Shutdown(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if got := d.server.aborted.Load(); got != 1 {
		t.Errorf("aborted = %d, want 1", got)
	}
}

func TestShutdownRefusesNewConnections(t *testing.T) {
	d := startInstrumentedDeployment(t, obs.NewRegistry(), nil, nil)
	// One round trip first, so the serve loop is provably running before
	// the drain starts.
	if err := d.remote.RegisterLicense("warm", lease.CountBased, 10); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	c, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, err := c.LicenseInfo("warm"); err != nil {
		t.Fatalf("LicenseInfo: %v", err)
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.server.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := net.DialTimeout("tcp", d.addr, time.Second); err == nil {
		t.Error("dial succeeded after Shutdown")
	}
	// Second Shutdown and Close after Shutdown are no-ops.
	if err := d.server.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
	d.server.Close()
}
