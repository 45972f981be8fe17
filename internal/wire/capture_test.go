package wire

import (
	"bytes"
	"encoding/base64"
	"errors"
	"net"
	"sync"
	"testing"

	"repro/internal/attest"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/slremote"
)

// captureBuf accumulates every byte that crosses the server's sockets,
// in both directions — a packet capture without the pcap.
type captureBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *captureBuf) add(p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf.Write(p)
}

func (c *captureBuf) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

type captureListener struct {
	net.Listener
	cap *captureBuf
}

func (l captureListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &captureConn{Conn: conn, cap: l.cap}, nil
}

type captureConn struct {
	net.Conn
	cap *captureBuf
}

func (c *captureConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.cap.add(p[:n])
	return n, err
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.cap.add(p)
	return c.Conn.Write(p)
}

// ratlsEndpoint builds an attested channel config whose identity is
// registered with and trusted by svc.
func ratlsEndpoint(t *testing.T, name, code string, svc *attest.Service) *ratls.Config {
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
	cfg, err := ratls.New(ratls.Options{Platform: p, Enclave: e, Verifier: svc})
	if err != nil {
		t.Fatalf("ratls.New: %v", err)
	}
	return cfg
}

// captureDeployment starts a wire server behind a byte-capturing
// listener, speaking the given channel config.
func captureDeployment(t *testing.T, rc *ratls.Config) (addr string, cap *captureBuf) {
	t.Helper()
	remote, err := slremote.NewServer(slremote.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("slremote.NewServer: %v", err)
	}
	srv, err := NewServer(remote, nil, rc, nil, nil, nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	cap = &captureBuf{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(captureListener{Listener: ln, cap: cap})
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String(), cap
}

// escrowKey is a recognizable key pattern; its raw bytes and base64
// encoding are what the capture is scanned for.
func escrowKey(t *testing.T) (seccrypto.Key, [][]byte) {
	t.Helper()
	raw := []byte("0123456789abcdef")
	key, err := seccrypto.KeyFromBytes(raw)
	if err != nil {
		t.Fatalf("KeyFromBytes: %v", err)
	}
	return key, [][]byte{raw, []byte(base64.StdEncoding.EncodeToString(raw))}
}

// TestNoKeyBytesOnAttestedWire is the packet-capture proof for the
// acceptance criterion: with the attested channel, neither the raw root
// key nor its JSON (base64) encoding ever appears in the TCP byte
// stream — the TLS record layer is between the envelope and the wire.
func TestNoKeyBytesOnAttestedWire(t *testing.T) {
	svc := attest.NewService()
	cliCfg := ratlsEndpoint(t, "cap-cli", "cli-code", svc)
	srvCfg := ratlsEndpoint(t, "cap-srv", "srv-code", svc)
	addr, cap := captureDeployment(t, srvCfg)

	client, err := Dial(addr, cliCfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	key, needles := escrowKey(t)
	// The escrow is rejected (unknown SLID) but the request — key
	// included — has already crossed the wire, which is what matters.
	if err := client.EscrowRootKey("ghost", key); !errors.Is(err, ErrRemote) {
		t.Fatalf("escrow ghost: %v", err)
	}

	captured := cap.bytes()
	if len(captured) == 0 {
		t.Fatal("capture is empty")
	}
	// TLS handshake record: content type 0x16, legacy version 0x03 0x01.
	if captured[0] != 0x16 || captured[1] != 0x03 {
		t.Fatalf("stream does not start with a TLS handshake record: % x", captured[:4])
	}
	for _, needle := range needles {
		if bytes.Contains(captured, needle) {
			t.Fatalf("key material %q found in attested capture", needle)
		}
	}
}

// TestInsecureChannelLeaksKeyBytes is the sanity check for the capture
// harness: over the explicit plaintext channel the key's JSON encoding
// IS visible, so the negative result above is meaningful.
func TestInsecureChannelLeaksKeyBytes(t *testing.T) {
	addr, cap := captureDeployment(t, ratls.Insecure())
	client, err := Dial(addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	key, needles := escrowKey(t)
	if err := client.EscrowRootKey("ghost", key); !errors.Is(err, ErrRemote) {
		t.Fatalf("escrow ghost: %v", err)
	}
	if !bytes.Contains(cap.bytes(), needles[1]) {
		t.Fatal("plaintext capture does not contain the key's base64 encoding; the sniffer is broken")
	}
}
