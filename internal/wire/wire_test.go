package wire

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, TypeRenew, 0, RenewRequest{SLID: "s", License: "l"}, nil); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	env, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if env.Type != TypeRenew {
		t.Fatalf("type = %q", env.Type)
	}
	var req RenewRequest
	if err := DecodePayload(env, &req); err != nil {
		t.Fatalf("DecodePayload: %v", err)
	}
	if req.SLID != "s" || req.License != "l" {
		t.Fatalf("payload = %+v", req)
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	// Zero size.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-size frame accepted")
	}
	// Oversized.
	if _, err := ReadMessage(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated body.
	if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 10, 'x'})); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Invalid JSON.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 3})
	buf.WriteString("not")
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestDecodePayloadEmpty(t *testing.T) {
	var out RenewRequest
	if err := DecodePayload(Envelope{Type: TypeRenew}, &out); err == nil {
		t.Fatal("empty payload accepted")
	}
}

// testDeployment spins up a real TCP server around a fresh SL-Remote.
type testDeployment struct {
	remote  *slremote.Server
	service *attest.Service
	server  *Server
	addr    string
	done    chan struct{}
}

func startDeployment(t *testing.T) *testDeployment {
	t.Helper()
	return serveDeployment(t, listen(t), nil, nil)
}

// listen opens a loopback listener. Tests whose server needs an address
// before it exists (a shard gate naming a peer) listen first.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	return ln
}

// waitFor polls cond until it holds, failing the test with what it waited
// for if 5 s pass first.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// serveDeployment serves a fresh SL-Remote on ln behind gate (nil: it
// owns every license). setup, when set, configures the server before the
// serve goroutine starts, so tests stay race-clean.
func serveDeployment(t *testing.T, ln net.Listener, gate ShardGate, setup func(*Server)) *testDeployment {
	t.Helper()
	service := attest.NewService()
	remote, err := slremote.NewServer(slremote.DefaultConfig(), service)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv, err := NewServer(remote, t.Logf, ratls.Insecure(), gate, nil, nil)
	if err != nil {
		t.Fatalf("wire.NewServer: %v", err)
	}
	if setup != nil {
		setup(srv)
	}
	d := &testDeployment{
		remote:  remote,
		service: service,
		server:  srv,
		addr:    ln.Addr().String(),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		if err := srv.Serve(ln); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		srv.Close()
		<-d.done
	})
	return d
}

func TestServerRejectsNil(t *testing.T) {
	if _, err := NewServer(nil, nil, ratls.Insecure(), nil, nil, nil); err == nil {
		t.Fatal("nil remote accepted")
	}
	remote, err := slremote.NewServer(slremote.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("slremote.NewServer: %v", err)
	}
	if _, err := NewServer(remote, nil, nil, nil, nil, nil); !errors.Is(err, ErrNilChannelConfig) {
		t.Fatalf("nil channel config: got %v, want ErrNilChannelConfig", err)
	}
	if _, err := Dial("127.0.0.1:0", nil); !errors.Is(err, ErrNilChannelConfig) {
		t.Fatalf("nil channel config dial: got %v, want ErrNilChannelConfig", err)
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	d := startDeployment(t)

	// Client machine + platform, trusted by the server's service.
	m, err := sgx.NewMachine(sgx.MachineConfig{Name: "client", EPCBytes: 8 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	plat, err := attest.NewPlatform("client", m)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	d.service.RegisterPlatform(plat)
	d.service.TrustMeasurement(sgx.MeasurementOf(sllocal.EnclaveCodeIdentity))

	client, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() {
		if err := client.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	if err := d.remote.RegisterLicense("lic", lease.CountBased, 10_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	// A renewal for an SLID that never initialized surfaces the remote
	// error.
	if _, err := client.RenewLease("ghost", "lic"); !errors.Is(err, ErrRemote) {
		t.Fatalf("RenewLease ghost: %v", err)
	}

	// SL-Local runs against the TCP client unchanged.
	state := &sllocal.UntrustedState{}
	svc, err := sllocal.New(sllocal.Config{TokenBatch: 10}, sllocal.Deps{
		Machine: m, Platform: plat, Remote: client, State: state,
	})
	if err != nil {
		t.Fatalf("sllocal.New: %v", err)
	}
	if err := svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	app, err := m.CreateEnclave("app", []byte("app"), 0)
	if err != nil {
		t.Fatalf("CreateEnclave: %v", err)
	}
	for i := 0; i < 30; i++ {
		if _, err := svc.RequestToken(app, "lic"); err != nil {
			t.Fatalf("RequestToken %d: %v", i, err)
		}
	}
	info, err := client.LicenseInfo("lic")
	if err != nil {
		t.Fatalf("LicenseInfo: %v", err)
	}
	if info.Remaining >= info.TotalGCL {
		t.Fatalf("no units granted: %+v", info)
	}

	// Graceful shutdown escrows over the wire; restart restores.
	if err := svc.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	svc2, err := sllocal.New(sllocal.Config{TokenBatch: 10}, sllocal.Deps{
		Machine: m, Platform: plat, Remote: client, State: state,
	})
	if err != nil {
		t.Fatalf("sllocal.New: %v", err)
	}
	if err := svc2.Init(); err != nil {
		t.Fatalf("re-Init: %v", err)
	}
	if _, err := svc2.RequestToken(app, "lic"); err != nil {
		t.Fatalf("post-restore RequestToken: %v", err)
	}
	if got := svc2.Stats().Renewals; got != 0 {
		t.Fatalf("renewals after restore over TCP = %d, want 0", got)
	}

	if _, err := client.LicenseInfo("ghost"); !errors.Is(err, ErrRemote) {
		t.Fatalf("LicenseInfo ghost: %v", err)
	}
}

func TestUnattestedClientRejected(t *testing.T) {
	d := startDeployment(t)
	m, err := sgx.NewMachine(sgx.MachineConfig{Name: "pirate", EPCBytes: 8 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	plat, err := attest.NewPlatform("pirate", m)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	// Platform deliberately NOT registered with the service.
	client, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	svc, err := sllocal.New(sllocal.Config{}, sllocal.Deps{
		Machine: m, Platform: plat, Remote: client,
	})
	if err != nil {
		t.Fatalf("sllocal.New: %v", err)
	}
	if err := svc.Init(); err == nil {
		t.Fatal("unattested SL-Local initialized against the server")
	}
}

// TestUnknownMessageType: a type the client port does not serve gets an
// error reply and is counted under type="unknown". The rows besides
// "bogus" name administrative writes (register a license, report a
// crash, set a profile, report consumption) that only in-process callers
// make: a peer that sends one changes nothing.
func TestUnknownMessageType(t *testing.T) {
	reg := obs.NewRegistry()
	d := startInstrumentedDeployment(t, reg, nil, nil)
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	types := []string{"bogus", "register_license", "report_crash", "set_profile", "consume"}
	for i, typ := range types {
		t.Run(typ, func(t *testing.T) {
			payload := map[string]any{"id": "lic", "slid": "slid-1", "license": "lic", "units": 1, "total_gcl": 1 << 50}
			if err := WriteMessage(conn, typ, uint64(i+1), payload, nil); err != nil {
				t.Fatalf("WriteMessage: %v", err)
			}
			env, err := ReadMessage(conn)
			if err != nil {
				t.Fatalf("ReadMessage: %v", err)
			}
			if env.Type != TypeError || env.ID != uint64(i+1) {
				t.Fatalf("reply = %q (id %d), want %q (id %d)", env.Type, env.ID, TypeError, i+1)
			}
			if !strings.Contains(RemoteErr(env).Error(), "unknown message type") {
				t.Fatalf("error = %v", RemoteErr(env))
			}
		})
	}
	unknown := map[string]string{"type": "unknown"}
	waitFor(t, "every unknown request counted", func() bool {
		return reg.Snapshot().Get("wire_server_rpcs_total", unknown) == float64(len(types))
	})
	if got := reg.Snapshot().Get("wire_server_rpc_errors_total", unknown); got != float64(len(types)) {
		t.Fatalf(`errors under type="unknown" = %v, want %d`, got, len(types))
	}
	if ids := d.remote.LicenseIDs(); len(ids) != 0 {
		t.Fatalf("licenses after refused writes = %v, want none", ids)
	}
}

func TestQuoteCodecRoundTrip(t *testing.T) {
	m, err := sgx.NewMachine(sgx.MachineConfig{EPCBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	plat, err := attest.NewPlatform("p", m)
	if err != nil {
		t.Fatal(err)
	}
	e, err := m.CreateEnclave("e", []byte("code"), 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := plat.CreateQuote(e, []byte("nonce"))
	if err != nil {
		t.Fatal(err)
	}
	// The envelope carries attest.Quote directly; framing it and decoding
	// it back must reproduce the quote bit for bit.
	var buf bytes.Buffer
	if err := WriteMessage(&buf, TypeInit, 0, InitRequest{SLID: "s", Quote: q}, nil); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	env, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	var req InitRequest
	if err := DecodePayload(env, &req); err != nil {
		t.Fatalf("DecodePayload: %v", err)
	}
	if req.Quote != q {
		t.Fatal("quote round trip mismatch")
	}
	// A tampered frame with wrong field sizes is rejected by the quote
	// codec, not silently truncated.
	mangled := bytes.Replace(env.Payload, []byte(`"source":"`), []byte(`"source":"AAAA`), 1)
	var bad InitRequest
	if err := DecodePayload(Envelope{Type: TypeInit, Payload: mangled}, &bad); !errors.Is(err, attest.ErrMalformedQuote) {
		t.Fatalf("mangled quote: got %v, want ErrMalformedQuote", err)
	}
}

func TestEscrowKeyCodec(t *testing.T) {
	d := startDeployment(t)
	client, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	key, err := seccrypto.NewKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Escrow for an unknown client must surface the remote error.
	if err := client.EscrowRootKey("ghost", key); !errors.Is(err, ErrRemote) {
		t.Fatalf("escrow ghost: %v", err)
	}
}
