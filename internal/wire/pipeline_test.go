package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/chaos"
	"repro/internal/lease"
	"repro/internal/ratls"
	"repro/internal/slremote"
)

// pipeDeployment is a wire deployment for pipelining tests: a permissive
// SL-Remote (nil attestation service, so InitClient needs no quote) behind
// a wire server whose listener can be wrapped before serving starts.
type pipeDeployment struct {
	remote *slremote.Server
	server *Server
	addr   string
}

func startPipeDeployment(t testing.TB, wrap func(net.Listener) net.Listener) *pipeDeployment {
	t.Helper()
	remote, err := slremote.NewServer(slremote.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("slremote.NewServer: %v", err)
	}
	srv, err := NewServer(remote, t.Logf, ratls.Insecure(), nil, nil, nil)
	if err != nil {
		t.Fatalf("wire.NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveLn := net.Listener(ln)
	if wrap != nil {
		serveLn = wrap(ln)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(serveLn)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return &pipeDeployment{remote: remote, server: srv, addr: ln.Addr().String()}
}

// TestPipelinedDemuxRaceStress is the demux torture test: 64 goroutines
// share ONE pipelined connection and interleave renewals, consume reports,
// license lookups, and deliberate error replies, while chaos Reorder
// faults on the server's listener force response frames out of request
// order. Every worker owns a distinct license whose registered TotalGCL is
// its correlation witness: a reply delivered to the wrong waiter surfaces
// as a mismatched license ID or total, not as a flake. Run under -race.
func TestPipelinedDemuxRaceStress(t *testing.T) {
	const workers = 64
	const iters = 16
	licName := func(i int) string { return fmt.Sprintf("lic-%02d", i) }
	licTotal := func(i int) int64 { return 100_000 + int64(i)*7 }

	dir := chaos.NewNetDirector()
	// Reorder replies throughout the response stream (the stream is
	// roughly workers*iters frames long), with a few delays mixed in so
	// handler goroutines also finish out of order.
	for k := 0; k < 48; k++ {
		dir.Arm(chaos.ConnFault{Kind: chaos.Reorder, After: 5 + 18*k})
	}
	for k := 0; k < 8; k++ {
		dir.Arm(chaos.ConnFault{Kind: chaos.Delay, After: 40 + 111*k})
	}
	d := startPipeDeployment(t, func(ln net.Listener) net.Listener {
		return chaos.WrapListener(ln, dir)
	})

	slids := make([]string, workers)
	for i := 0; i < workers; i++ {
		if err := d.remote.RegisterLicense(licName(i), lease.CountBased, licTotal(i)); err != nil {
			t.Fatalf("RegisterLicense %d: %v", i, err)
		}
		init, err := d.remote.InitClient("", attest.Quote{}, nil)
		if err != nil {
			t.Fatalf("InitClient %d: %v", i, err)
		}
		slids[i] = init.SLID
	}

	client, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	// One connection: every worker below pipelines on it, so the demux
	// reader is the only thing keeping replies straight.

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lic := licName(i)
			var avail int64 // units renewed but not yet consumed by this worker
			for j := 0; j < iters; j++ {
				switch j % 4 {
				case 0:
					info, err := client.LicenseInfo(lic)
					if err != nil {
						t.Errorf("worker %d LicenseInfo: %v", i, err)
						return
					}
					if info.ID != lic || info.TotalGCL != licTotal(i) {
						t.Errorf("worker %d got license %q total %d, want %q total %d — reply misdelivered",
							i, info.ID, info.TotalGCL, lic, licTotal(i))
						return
					}
				case 1:
					g, err := client.RenewLease(slids[i], lic)
					if err != nil {
						t.Errorf("worker %d RenewLease: %v", i, err)
						return
					}
					if g.Units < 1 || g.GCL.Counter != g.Units {
						t.Errorf("worker %d grant = %+v — reply misdelivered or corrupt", i, g)
						return
					}
					avail += g.Units
				case 2:
					if avail < 1 {
						continue
					}
					if err := client.ConsumeReport(slids[i], lic, 1); err != nil {
						t.Errorf("worker %d ConsumeReport: %v", i, err)
						return
					}
					avail--
				case 3:
					// An error reply must come back to the waiter that
					// earned it, not to an innocent bystander.
					if _, err := client.LicenseInfo(fmt.Sprintf("ghost-%02d", i)); !errors.Is(err, ErrRemote) {
						t.Errorf("worker %d ghost lookup: err = %v, want ErrRemote", i, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()

	if got := client.wrongID.Load(); got != 0 {
		t.Errorf("wrong-ID responses = %d, want 0 (server echoed a bad correlation ID)", got)
	}
	if got := client.poolMisses.Load(); got != 0 {
		t.Errorf("connections dialed after Dial = %d, want 0 (workload escaped the pipelined conn)", got)
	}
	reorders := 0
	for _, ev := range dir.Trace() {
		if ev.Kind == chaos.Reorder {
			reorders++
		}
	}
	if reorders == 0 {
		t.Fatal("no reorder faults fired — the stress ran without out-of-order delivery")
	}
	t.Logf("demux survived %d reordered replies across %d RPCs", reorders, workers*iters)
}

// TestPipelinedManyInFlightOneConn proves requests genuinely overlap on a
// single connection: the server's pre-dispatch hook holds every
// license-info handler until all of them have arrived, which can only
// happen if the client pipelines instead of serializing round trips.
func TestPipelinedManyInFlightOneConn(t *testing.T) {
	const inFlight = 8
	var (
		mu        sync.Mutex
		cur, peak int
	)
	release := make(chan struct{})
	d := startPipeDeployment(t, nil)
	d.server.preDispatch = func(env Envelope) {
		if env.Type != TypeLicenseInfo {
			return
		}
		mu.Lock()
		cur++
		if cur > peak {
			peak = cur
		}
		arrived := cur
		mu.Unlock()
		if arrived == inFlight {
			close(release)
		}
		select {
		case <-release:
		case <-time.After(5 * time.Second):
		}
	}
	if err := d.remote.RegisterLicense("lic", lease.CountBased, 1000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}

	client, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	var wg sync.WaitGroup
	errs := make([]error, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.LicenseInfo("lic")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak != inFlight {
		t.Fatalf("peak concurrent envelopes on one conn = %d, want %d", peak, inFlight)
	}
}

// TestPipelinedWrongIDRejected pins the demux's misdelivery defense: a
// reply carrying an unknown correlation ID is counted and dropped, and the
// waiter still receives the correctly-correlated reply that follows.
func TestPipelinedWrongIDRejected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			env, err := ReadMessage(conn)
			if err != nil {
				return
			}
			// First a poisoned reply under a bogus ID, then the real one.
			// Delivering the poison to the waiter would hand it a license
			// that does not exist.
			_ = WriteMessage(conn, TypeLicenseInfo, env.ID+1000,
				LicenseInfoResponse{ID: "poison", TotalGCL: 666}, nil)
			_ = WriteMessage(conn, TypeLicenseInfo, env.ID,
				LicenseInfoResponse{ID: "real", TotalGCL: 7}, nil)
		}
	}()

	client, err := Dial(ln.Addr().String(), ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	info, err := client.LicenseInfo("real")
	if err != nil {
		t.Fatalf("LicenseInfo: %v", err)
	}
	if info.ID != "real" || info.TotalGCL != 7 {
		t.Fatalf("waiter got %+v — the poisoned reply was misdelivered", info)
	}
	if got := client.wrongID.Load(); got != 1 {
		t.Fatalf("wrong-ID responses = %d, want 1", got)
	}
}
