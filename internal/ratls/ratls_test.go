package ratls

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"io"
	"math/big"
	"net"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
)

// endpoint bundles one side's identity with its Config for tests.
type endpoint struct {
	cfg      *Config
	platform *attest.Platform
	enclave  *sgx.Enclave
	verifier *attest.Service
}

// newEndpoint builds an endpoint whose verifier is the shared service
// svc; the endpoint's own platform and measurement are registered with
// it, so two endpoints sharing one service mutually trust each other.
func newEndpoint(t testing.TB, name, code string, svc *attest.Service) *endpoint {
	t.Helper()
	m, err := sgx.NewMachine(sgx.MachineConfig{Name: name, EPCBytes: 1 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	p, err := attest.NewPlatform(name, m)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	e, err := m.CreateEnclave(name, []byte(code), 0)
	if err != nil {
		t.Fatalf("CreateEnclave: %v", err)
	}
	svc.RegisterPlatform(p)
	svc.TrustMeasurement(e.Measurement())
	cfg, err := New(Options{Platform: p, Enclave: e, Verifier: svc})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &endpoint{cfg: cfg, platform: p, enclave: e, verifier: svc}
}

// pair returns a mutually-trusting client/server endpoint pair.
func pair(t *testing.T) (cli, srv *endpoint) {
	t.Helper()
	svc := attest.NewService()
	return newEndpoint(t, "sl-local-host", "sl-local-code", svc),
		newEndpoint(t, "sl-remote-host", "sl-remote-code", svc)
}

// tcpPair returns the two ends of one loopback TCP connection. The
// kernel's socket buffers absorb the server's post-handshake ticket
// writes, which an unbuffered net.Pipe would deadlock on.
func tcpPair(t *testing.T) (cliSide, srvSide net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	cliSide, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("accept: %v", r.err)
	}
	return cliSide, r.c
}

// handshakePipe runs both sides of a handshake over one TCP connection.
func handshakePipe(t *testing.T, cli, srv *Config) (cliConn, srvConn net.Conn, cliErr, srvErr error) {
	t.Helper()
	pc, ps := tcpPair(t)
	done := make(chan struct{})
	go func() {
		srvConn, srvErr = srv.Server(ps)
		close(done)
	}()
	cliConn, cliErr = cli.Client(pc)
	<-done
	return
}

// xchg pushes one byte each way, which also delivers the server's
// post-handshake session tickets to the client.
func xchg(t *testing.T, cli, srv net.Conn) {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		if _, err := srv.Write([]byte{1}); err != nil {
			errc <- err
			return
		}
		buf := make([]byte, 1)
		_, err := io.ReadFull(srv, buf)
		errc <- err
	}()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(cli, buf); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if _, err := cli.Write([]byte{2}); err != nil {
		t.Fatalf("client write: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("server side: %v", err)
	}
}

func closeBoth(a, b net.Conn) {
	if a != nil {
		_ = a.Close()
	}
	if b != nil {
		_ = b.Close()
	}
}

func TestMutualAttestedHandshake(t *testing.T) {
	cli, srv := pair(t)
	cc, sc, cliErr, srvErr := handshakePipe(t, cli.cfg, srv.cfg)
	if cliErr != nil || srvErr != nil {
		t.Fatalf("handshake: client %v, server %v", cliErr, srvErr)
	}
	defer closeBoth(cc, sc)
	xchg(t, cc, sc)

	for side, ep := range map[string]*endpoint{"client": cli, "server": srv} {
		st := ep.cfg.Stats()
		if st.ColdHandshakes != 1 || st.ResumedHandshakes != 0 || st.QuoteVerifications != 1 {
			t.Fatalf("%s stats = %+v, want 1 cold / 0 resumed / 1 verified", side, st)
		}
	}
	m, err := cc.(*Conn).PeerMeasurement()
	if err != nil {
		t.Fatalf("PeerMeasurement: %v", err)
	}
	if m != srv.enclave.Measurement() {
		t.Fatal("client sees wrong server measurement")
	}
	m, err = sc.(*Conn).PeerMeasurement()
	if err != nil {
		t.Fatalf("PeerMeasurement: %v", err)
	}
	if m != cli.enclave.Measurement() {
		t.Fatal("server sees wrong client measurement")
	}
}

func TestResumptionSkipsQuoteVerification(t *testing.T) {
	cli, srv := pair(t)
	cc, sc, cliErr, srvErr := handshakePipe(t, cli.cfg, srv.cfg)
	if cliErr != nil || srvErr != nil {
		t.Fatalf("cold handshake: client %v, server %v", cliErr, srvErr)
	}
	xchg(t, cc, sc) // delivers session tickets
	closeBoth(cc, sc)

	cc, sc, cliErr, srvErr = handshakePipe(t, cli.cfg, srv.cfg)
	if cliErr != nil || srvErr != nil {
		t.Fatalf("resumed handshake: client %v, server %v", cliErr, srvErr)
	}
	defer closeBoth(cc, sc)
	if !cc.(*Conn).Resumed() {
		t.Fatal("second connection did not resume")
	}
	xchg(t, cc, sc)

	for side, ep := range map[string]*endpoint{"client": cli, "server": srv} {
		st := ep.cfg.Stats()
		if st.ResumedHandshakes != 1 {
			t.Fatalf("%s resumed = %d, want 1", side, st.ResumedHandshakes)
		}
		if st.QuoteVerifications != 1 {
			t.Fatalf("%s quote verifications = %d after resumption, want still 1", side, st.QuoteVerifications)
		}
	}

	// Identity is still available on the resumed connection via the
	// certificates carried in the session ticket.
	m, err := sc.(*Conn).PeerMeasurement()
	if err != nil {
		t.Fatalf("PeerMeasurement on resumed conn: %v", err)
	}
	if m != cli.enclave.Measurement() {
		t.Fatal("resumed session lost client identity")
	}
}

func TestWrongMeasurementRejected(t *testing.T) {
	// Distinct services: the client's verifier knows the server's
	// platform but does not trust its measurement.
	cliSvc, srvSvc := attest.NewService(), attest.NewService()
	cli := newEndpoint(t, "cli-host", "cli-code", cliSvc)
	srv := newEndpoint(t, "srv-host", "srv-code", srvSvc)
	cliSvc.RegisterPlatform(srv.platform)
	srvSvc.RegisterPlatform(cli.platform)
	srvSvc.TrustMeasurement(cli.enclave.Measurement())
	// cliSvc deliberately does NOT trust srv's measurement.

	cc, sc, cliErr, _ := handshakePipe(t, cli.cfg, srv.cfg)
	defer closeBoth(cc, sc)
	if !errors.Is(cliErr, ErrHandshake) {
		t.Fatalf("client error = %v, want ErrHandshake", cliErr)
	}
	if !errors.Is(cliErr, attest.ErrUntrustedMeasurement) {
		t.Fatalf("client error = %v, want ErrUntrustedMeasurement in chain", cliErr)
	}
	st := cli.cfg.Stats()
	if st.QuoteRejections != 1 || st.HandshakeFailures != 1 || st.ColdHandshakes != 0 {
		t.Fatalf("client stats = %+v, want 1 rejection / 1 failure / 0 cold", st)
	}
}

func TestQuoteOverMismatchedKeyRejected(t *testing.T) {
	cli, srv := pair(t)
	// Re-sign the server's credential with a fresh key while keeping a
	// quote minted over different report data: a genuine quote replayed
	// over a key the enclave never attested.
	evilKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	quote, err := srv.platform.CreateQuote(srv.enclave, []byte("not-the-pubkey-hash"))
	if err != nil {
		t.Fatalf("CreateQuote: %v", err)
	}
	cert, err := certWithQuote(evilKey, quote)
	if err != nil {
		t.Fatalf("certWithQuote: %v", err)
	}
	srv.cfg.server.Certificates = []tls.Certificate{cert}

	cc, sc, cliErr, _ := handshakePipe(t, cli.cfg, srv.cfg)
	defer closeBoth(cc, sc)
	if !errors.Is(cliErr, ErrQuoteBinding) {
		t.Fatalf("client error = %v, want ErrQuoteBinding", cliErr)
	}
}

func TestMissingQuoteRejected(t *testing.T) {
	cli, srv := pair(t)
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	plain, err := plainCert(key)
	if err != nil {
		t.Fatalf("plainCert: %v", err)
	}
	srv.cfg.server.Certificates = []tls.Certificate{plain}

	cc, sc, cliErr, _ := handshakePipe(t, cli.cfg, srv.cfg)
	defer closeBoth(cc, sc)
	if !errors.Is(cliErr, ErrNoQuote) {
		t.Fatalf("client error = %v, want ErrNoQuote", cliErr)
	}
}

// plainCert self-signs a certificate without the quote extension.
func plainCert(key *ecdsa.PrivateKey) (tls.Certificate, error) {
	serial, err := rand.Int(rand.Reader, big.NewInt(1<<62))
	if err != nil {
		return tls.Certificate{}, err
	}
	tmpl := &x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: "no-quote"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, err
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}

func TestRevokedMeasurementMidRun(t *testing.T) {
	svc := attest.NewService()
	cli := newEndpoint(t, "cli-host", "cli-code", svc)
	srv := newEndpoint(t, "srv-host", "srv-code", svc)

	cc, sc, cliErr, srvErr := handshakePipe(t, cli.cfg, srv.cfg)
	if cliErr != nil || srvErr != nil {
		t.Fatalf("cold handshake: client %v, server %v", cliErr, srvErr)
	}
	xchg(t, cc, sc)
	closeBoth(cc, sc)

	// Revocation lands mid-run. A resumed session still rides the old
	// ticket — resumption's documented blind spot...
	svc.RevokeMeasurement(srv.enclave.Measurement())
	cc, sc, cliErr, srvErr = handshakePipe(t, cli.cfg, srv.cfg)
	if cliErr != nil || srvErr != nil {
		t.Fatalf("resumed handshake after revocation: client %v, server %v", cliErr, srvErr)
	}
	if !cc.(*Conn).Resumed() {
		t.Fatal("expected resumption")
	}
	xchg(t, cc, sc)
	closeBoth(cc, sc)

	// ...until the ticket secret rotates: every outstanding ticket stops
	// decrypting, the next handshake is cold, and the revoked peer is
	// rejected.
	if err := srv.cfg.RotateTicketSecret(); err != nil {
		t.Fatalf("RotateTicketSecret: %v", err)
	}
	before := cli.cfg.Stats()
	cc, sc, cliErr, _ = handshakePipe(t, cli.cfg, srv.cfg)
	defer closeBoth(cc, sc)
	if !errors.Is(cliErr, attest.ErrUntrustedMeasurement) {
		t.Fatalf("post-rotation handshake: got %v, want ErrUntrustedMeasurement", cliErr)
	}
	after := cli.cfg.Stats()
	if after.QuoteRejections != before.QuoteRejections+1 {
		t.Fatalf("quote rejections %d → %d, want +1", before.QuoteRejections, after.QuoteRejections)
	}
	if srv.cfg.Stats().TicketRotations != 1 {
		t.Fatalf("ticket rotations = %d, want 1", srv.cfg.Stats().TicketRotations)
	}
}

func TestRotationForcesColdHandshake(t *testing.T) {
	cli, srv := pair(t)
	cc, sc, cliErr, srvErr := handshakePipe(t, cli.cfg, srv.cfg)
	if cliErr != nil || srvErr != nil {
		t.Fatalf("cold handshake: client %v, server %v", cliErr, srvErr)
	}
	xchg(t, cc, sc)
	closeBoth(cc, sc)

	if err := srv.cfg.RotateTicketSecret(); err != nil {
		t.Fatalf("RotateTicketSecret: %v", err)
	}
	cc, sc, cliErr, srvErr = handshakePipe(t, cli.cfg, srv.cfg)
	if cliErr != nil || srvErr != nil {
		t.Fatalf("post-rotation handshake: client %v, server %v", cliErr, srvErr)
	}
	defer closeBoth(cc, sc)
	if cc.(*Conn).Resumed() {
		t.Fatal("stale ticket resumed after rotation")
	}
	if st := srv.cfg.Stats(); st.ColdHandshakes != 2 || st.QuoteVerifications != 2 {
		t.Fatalf("server stats = %+v, want 2 cold / 2 verified", st)
	}
}

func TestHandshakeFailureOnCutConn(t *testing.T) {
	cli, _ := pair(t)
	pc, ps := net.Pipe()
	_ = ps.Close() // peer vanishes before the handshake
	_, err := cli.cfg.Client(pc)
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("got %v, want ErrHandshake", err)
	}
	if st := cli.cfg.Stats(); st.HandshakeFailures != 1 {
		t.Fatalf("handshake failures = %d, want 1", st.HandshakeFailures)
	}
}

func TestInsecurePassthrough(t *testing.T) {
	cfg := Insecure()
	if !cfg.IsInsecure() {
		t.Fatal("IsInsecure = false")
	}
	pc, ps := net.Pipe()
	cc, err := cfg.Client(pc)
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	sc, err := cfg.Server(ps)
	if err != nil {
		t.Fatalf("Server: %v", err)
	}
	defer closeBoth(cc, sc)
	if _, ok := cc.(*InsecureConn); !ok {
		t.Fatalf("client conn is %T, want *InsecureConn", cc)
	}
	xchg(t, cc, sc)
	if st := cfg.Stats(); st != (Stats{}) {
		t.Fatalf("insecure config counted handshakes: %+v", st)
	}
}

func TestSealForChannel(t *testing.T) {
	key, err := seccrypto.NewKey(rand.Reader)
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}

	cli, srv := pair(t)
	cc, sc, cliErr, srvErr := handshakePipe(t, cli.cfg, srv.cfg)
	if cliErr != nil || srvErr != nil {
		t.Fatalf("handshake: client %v, server %v", cliErr, srvErr)
	}
	defer closeBoth(cc, sc)

	b, err := SealForChannel(key, cc)
	if err != nil {
		t.Fatalf("attested conn refused: %v", err)
	}
	if len(b) != seccrypto.KeySize {
		t.Fatalf("sealed %d bytes, want %d", b, seccrypto.KeySize)
	}

	if _, err := SealForChannel(key, &InsecureConn{}); err != nil {
		t.Fatalf("explicit insecure conn refused: %v", err)
	}

	pc, ps := net.Pipe()
	defer closeBoth(pc, ps)
	if _, err := SealForChannel(key, pc); !errors.Is(err, ErrUnsealedChannel) {
		t.Fatalf("plain net.Conn: got %v, want ErrUnsealedChannel", err)
	}
}

func TestNewRequiresIdentity(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New accepted empty options")
	}
}

// provisionedConfig builds one provisioned-fleet endpoint for the tests
// below: its own machine, credentials derived from the shared secret.
func provisionedConfig(t *testing.T, name string, secret, code []byte, trusted ...[]byte) *Config {
	t.Helper()
	m, err := sgx.NewMachine(sgx.MachineConfig{Name: name, EPCBytes: 1 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	cfg, err := NewProvisioned(name, m, secret, code, trusted...)
	if err != nil {
		t.Fatalf("NewProvisioned(%s): %v", name, err)
	}
	return cfg
}

// TestProvisionedFleetHandshake exercises the cross-process deployment
// path: two endpoints that share no attest.Service or platform registry,
// only a provisioning secret, mutually attest — and an endpoint holding
// a different secret is rejected at quote verification.
func TestProvisionedFleetHandshake(t *testing.T) {
	secret := []byte("fleet-secret")
	codeA, codeB := []byte("daemon-a"), []byte("daemon-b")
	cli := provisionedConfig(t, "node-a", secret, codeA, codeB)
	srv := provisionedConfig(t, "node-b", secret, codeB, codeA)

	cc, sc, cliErr, srvErr := handshakePipe(t, cli, srv)
	if cliErr != nil || srvErr != nil {
		t.Fatalf("provisioned handshake: cli=%v srv=%v", cliErr, srvErr)
	}
	closeBoth(cc, sc)

	evil := provisionedConfig(t, "node-x", []byte("other-secret"), codeA, codeB)
	_, _, cliErr, srvErr = handshakePipe(t, evil, srv)
	if cliErr == nil && srvErr == nil {
		t.Fatal("endpoint with a different provisioning secret completed the handshake")
	}
	if cliErr != nil && !errors.Is(cliErr, ErrHandshake) {
		t.Fatalf("impostor client error = %v, want ErrHandshake", cliErr)
	}
}

// TestProvisionedUntrustedCodeRejected pins the trust list: sharing the
// secret is necessary but not sufficient — the peer must also run a
// trusted code identity.
func TestProvisionedUntrustedCodeRejected(t *testing.T) {
	secret := []byte("fleet-secret")
	cli := provisionedConfig(t, "node-a", secret, []byte("daemon-a"), []byte("daemon-b"))
	srv := provisionedConfig(t, "node-b", secret, []byte("daemon-rogue"), []byte("daemon-a"))
	_, _, cliErr, _ := handshakePipe(t, cli, srv)
	if !errors.Is(cliErr, ErrHandshake) || !errors.Is(cliErr, attest.ErrUntrustedMeasurement) {
		t.Fatalf("rogue-code handshake error = %v, want ErrHandshake+ErrUntrustedMeasurement", cliErr)
	}
}
