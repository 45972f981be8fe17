package wire

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
)

// TestClientRenewAllocs pins what one loopback RenewLease round trip
// allocates, client and server together, with metrics on and no tracer —
// the configuration of every timed bench window. Observability that is off
// must cost nothing: no span name is built per RPC on either end, and no
// annotation value (remote address, granted units) is built for a nil
// span. Measured on go1.24 (with and without -race): 52 allocations before
// the span names moved into the request-type table and the annotation
// values under a non-nil span, 47 after.
func TestClientRenewAllocs(t *testing.T) {
	const maxAllocs = 49
	reg := obs.NewRegistry()
	d := startPipeDeployment(t, nil)
	d.server.ExposeMetrics(reg, nil)
	if err := d.remote.RegisterLicense("lic", lease.Perpetual, 1<<30); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	init, err := d.remote.InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("InitClient: %v", err)
	}
	client, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	client.ExposeMetrics(reg, nil)
	renew := func() {
		if _, err := client.RenewLease(init.SLID, "lic"); err != nil {
			t.Fatalf("RenewLease: %v", err)
		}
	}
	renew() // warm the frame pool and the buffered readers
	allocs := testing.AllocsPerRun(200, renew)
	t.Logf("allocations per RenewLease round trip: %.1f", allocs)
	if allocs > maxAllocs {
		t.Fatalf("RenewLease round trip allocates %.1f times, want ≤ %d", allocs, maxAllocs)
	}
}

// current is the client's connection right now.
func (c *Client) current() *clientConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cc
}

// TestClientServerDropNoRedial: once the server drops the connection, the
// next RPC fails with the demux reader's error. The client dials nothing
// — reconnecting is the caller's policy — so no pool miss is counted.
func TestClientServerDropNoRedial(t *testing.T) {
	ln := listen(t)
	defer ln.Close()
	var accepts atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conn.Close()
		}
	}()
	client, err := DialPolicy(ln.Addr().String(), time.Second, ratls.Insecure(), RetryPolicy{Attempts: 2, Base: time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer client.Close()
	reg := obs.NewRegistry()
	client.ExposeMetrics(reg, nil)
	cc := client.current()
	<-cc.done // the reader saw the server hang up
	readErr := cc.lastErr()

	if _, err := client.LicenseInfo("lic"); err == nil || !errors.Is(err, readErr) {
		t.Fatalf("RPC on a dropped connection: err = %v, want the reader's %v", err, readErr)
	}
	if got := reg.Snapshot().Get("wire_client_pool_misses_total", nil); got != 0 {
		t.Fatalf("wire_client_pool_misses_total = %v, want 0", got)
	}
	if got := accepts.Load(); got != 1 {
		t.Fatalf("server accepted %d connections, want 1 (the client redialed)", got)
	}
}

// TestClientRedirectRetiresOldConn: an RPC already in flight on the
// connection a redirect replaces still gets its own reply, because the old
// connection is retired, not cut; it closes once that reply drains it.
func TestClientRedirectRetiresOldConn(t *testing.T) {
	arrived, release := make(chan struct{}), make(chan struct{})
	ownerLn := listen(t)
	leader := ownerLn.Addr().String()
	stale := serveDeployment(t, listen(t), func(license string) (string, uint64, bool) {
		if license == "slow" { // served here, once the test lets it go
			close(arrived)
			<-release
			return leader, 7, true
		}
		return leader, 7, false
	}, nil)
	serveDeployment(t, ownerLn, func(string) (string, uint64, bool) { return leader, 7, true }, nil)
	if err := stale.remote.RegisterLicense("slow", lease.CountBased, 321); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}

	client, err := DialPolicy(stale.addr, time.Second, ratls.Insecure(), RetryPolicy{Attempts: 2, Base: time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer client.Close()
	old := client.current()
	type result struct {
		info LicenseInfoResponse
		err  error
	}
	slow := make(chan result, 1)
	go func() {
		info, err := client.LicenseInfo("slow")
		slow <- result{info, err}
	}()
	<-arrived

	// The redirect lands while "slow" is still in flight on old.
	if err := client.RegisterLicense("lic", uint8(lease.CountBased), 500); err != nil {
		t.Fatalf("RegisterLicense via redirect: %v", err)
	}
	if cur := client.current(); cur == old {
		t.Fatal("redirect kept the old connection")
	}
	close(release)
	r := <-slow
	if r.err != nil {
		t.Fatalf("in-flight RPC on the retired connection: %v", r.err)
	}
	if r.info.ID != "slow" || r.info.TotalGCL != 321 {
		t.Fatalf("in-flight RPC got %+v, want the stale server's slow license", r.info)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		old.mu.Lock()
		closed := old.closed
		old.mu.Unlock()
		if closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retired connection still open after its last reply")
		}
	}
}

// TestClientEscrowAfterRedirect: once a redirect moved the client, an
// escrow seals the key for, and sends it on, the new connection: the key
// is sealed inside the request path for the connection its frame is
// written to, never for a connection chosen beforehand.
func TestClientEscrowAfterRedirect(t *testing.T) {
	// Each server counts the escrows it receives before answering them.
	var staleEscrows, ownerEscrows atomic.Int64
	counting := func(n *atomic.Int64) func(*Server) {
		return func(s *Server) {
			s.preDispatch = func(env Envelope) {
				if env.Type == TypeEscrow {
					n.Add(1)
				}
			}
		}
	}
	staleLn, ownerLn := listen(t), listen(t)
	leader := ownerLn.Addr().String()
	stale := serveDeployment(t, staleLn, func(string) (string, uint64, bool) { return leader, 7, false },
		counting(&staleEscrows))
	serveDeployment(t, ownerLn, func(string) (string, uint64, bool) { return leader, 7, true },
		counting(&ownerEscrows))

	client, err := DialPolicy(stale.addr, time.Second, ratls.Insecure(), RetryPolicy{Attempts: 2, Base: time.Millisecond, Seed: 5})
	if err != nil {
		t.Fatalf("DialPolicy: %v", err)
	}
	defer client.Close()
	old := client.current()
	if err := client.RegisterLicense("lic", uint8(lease.CountBased), 500); err != nil {
		t.Fatalf("RegisterLicense via redirect: %v", err)
	}
	key, err := seccrypto.KeyFromBytes([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatalf("KeyFromBytes: %v", err)
	}
	// The SLID is unknown to the owner, so the escrow is refused — after
	// its frame, key included, reached the server it was sent to.
	if err := client.EscrowRootKey("ghost", key); !errors.Is(err, ErrRemote) {
		t.Fatalf("EscrowRootKey after redirect: %v", err)
	}
	if client.current() == old {
		t.Fatal("client still on the pre-redirect connection")
	}
	if got := ownerEscrows.Load(); got != 1 {
		t.Fatalf("owner received %d escrows, want 1", got)
	}
	if got := staleEscrows.Load(); got != 0 {
		t.Fatalf("stale server received %d escrows, want 0", got)
	}
}
