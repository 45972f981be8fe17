// Package ratls implements the paper's attested encrypted channel
// (Sections 4.2, 5.6) as RA-TLS over crypto/tls: each endpoint generates
// an ephemeral key pair and a self-signed certificate whose public-key
// hash is the report data of an attest.Quote embedded in a certificate
// extension. The peer extracts the quote during the TLS handshake,
// verifies it through an attest.Service (platform signature, measurement
// against the trust list, revocation honored), and binds it to the
// presented key — so channel encryption and enclave identity are
// established by one handshake, and nothing readable crosses the wire
// outside the TLS record layer.
//
// Because remote attestation costs seconds (the paper measures 3-4s per
// quote verification), the channel supports TLS 1.3 session resumption:
// the server encrypts session tickets under a rotating secret that, in a
// real deployment, never leaves the enclave. A resumed handshake skips
// quote verification entirely — the ticket proves a prior attested
// session — and rotating the ticket secret invalidates all outstanding
// tickets, forcing the next connection through a full, re-verified
// handshake (which is how revocation catches up with resumed peers).
package ratls

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/obs"
	"repro/internal/sgx"
)

// oidQuoteExtension is the X.509 extension carrying the JSON-encoded
// attest.Quote, under Intel's RA-TLS arc.
var oidQuoteExtension = asn1.ObjectIdentifier{1, 2, 840, 113741, 1337, 6}

// DefaultHandshakeTimeout bounds one TLS handshake unless the Options
// override it. Without it a peer that stalls mid-flight wedges the
// connection goroutine forever.
const DefaultHandshakeTimeout = 10 * time.Second

// Errors surfaced by the handshake. Quote-level failures from
// attest.Service (ErrBadQuote, ErrUntrustedMeasurement, ...) are wrapped
// and remain matchable with errors.Is.
var (
	// ErrHandshake wraps every handshake failure, so transports can
	// classify "the TLS/attestation layer failed" for retry decisions.
	ErrHandshake = errors.New("ratls: handshake failed")
	// ErrNoQuote reports a peer certificate without the quote extension.
	ErrNoQuote = errors.New("ratls: peer certificate carries no quote")
	// ErrQuoteBinding reports a quote whose report data does not match
	// the hash of the certificate's public key: a valid quote replayed
	// over a key the enclave never attested.
	ErrQuoteBinding = errors.New("ratls: quote not bound to presented key")
	// ErrUnsealedChannel reports an attempt to send secret material over
	// a connection that is neither attested nor explicitly insecure.
	ErrUnsealedChannel = errors.New("ratls: refusing to write secret to unattested channel")
)

// Options configures one endpoint of the attested channel.
type Options struct {
	// Platform mints this endpoint's quote. Required.
	Platform *attest.Platform
	// Enclave is the identity this endpoint presents: its measurement is
	// what the peer's trust list must contain. Required.
	Enclave *sgx.Enclave
	// Verifier checks the peer's quote. Required. Mutual attestation is
	// not optional: both ends always verify.
	Verifier *attest.Service
	// ChargeTo, when non-nil, is the machine whose virtual clock pays the
	// remote-attestation latency for each quote this endpoint verifies
	// (cold handshakes only; resumption is how that cost is amortized).
	ChargeTo *sgx.Machine
	// ServerName keys the client-side session cache. Defaults to
	// "securelease"; it is not checked against the certificate (identity
	// comes from the quote, not from X.509 names).
	ServerName string
	// HandshakeTimeout bounds one handshake; 0 means
	// DefaultHandshakeTimeout, negative disables the deadline.
	HandshakeTimeout time.Duration
}

// Config holds one endpoint's channel state: its certificate-plus-quote
// credential, the TLS configurations derived from it, the server-side
// ticket secret, and the handshake counters. One Config serves any number
// of connections concurrently; daemons create one at startup.
type Config struct {
	insecure bool

	client *tls.Config
	server *tls.Config

	handshakeTimeout time.Duration

	tracer atomic.Pointer[obs.Tracer]
	flight atomic.Pointer[obs.Tracer]

	coldHandshakes    atomic.Int64
	resumedHandshakes atomic.Int64
	handshakeFailures atomic.Int64
	quoteVerifs       atomic.Int64
	quoteRejects      atomic.Int64
	ticketRotations   atomic.Int64
}

// Stats is a snapshot of a Config's handshake counters. Tests assert the
// resumption-skips-verification property through it; ExposeMetrics
// publishes the same numbers.
type Stats struct {
	ColdHandshakes     int64
	ResumedHandshakes  int64
	HandshakeFailures  int64
	QuoteVerifications int64
	QuoteRejections    int64
	TicketRotations    int64
}

// Stats returns the current counter snapshot.
func (c *Config) Stats() Stats {
	return Stats{
		ColdHandshakes:     c.coldHandshakes.Load(),
		ResumedHandshakes:  c.resumedHandshakes.Load(),
		HandshakeFailures:  c.handshakeFailures.Load(),
		QuoteVerifications: c.quoteVerifs.Load(),
		QuoteRejections:    c.quoteRejects.Load(),
		TicketRotations:    c.ticketRotations.Load(),
	}
}

// New builds an attested-channel Config: it generates the ephemeral key
// pair, mints the quote over the public key's hash, and wires the
// verification callbacks. The credential is created once; verification
// of it happens on every cold handshake, so trust-list changes
// (revocation) take effect on the next full handshake.
func New(opts Options) (*Config, error) {
	if opts.Platform == nil || opts.Enclave == nil || opts.Verifier == nil {
		return nil, errors.New("ratls: Platform, Enclave, and Verifier are all required")
	}
	cert, err := mintCredential(opts.Platform, opts.Enclave)
	if err != nil {
		return nil, err
	}
	c := &Config{handshakeTimeout: opts.HandshakeTimeout}
	if c.handshakeTimeout == 0 {
		c.handshakeTimeout = DefaultHandshakeTimeout
	}
	serverName := opts.ServerName
	if serverName == "" {
		serverName = "securelease"
	}

	verifyPeer := func(rawCerts [][]byte, _ [][]*x509.Certificate) error {
		c.quoteVerifs.Add(1)
		if err := verifyQuotedCert(rawCerts, opts.Verifier, opts.ChargeTo); err != nil {
			c.quoteRejects.Add(1)
			return err
		}
		return nil
	}
	// VerifyPeerCertificate does not run on resumed connections — that is
	// the point of resumption — but the session ticket must still carry an
	// attested identity. VerifyConnection runs on every connection and
	// enforces it.
	verifyConn := func(cs tls.ConnectionState) error {
		if len(cs.PeerCertificates) == 0 {
			return fmt.Errorf("%w: no peer certificate in session", ErrNoQuote)
		}
		return nil
	}

	base := &tls.Config{
		MinVersion:   tls.VersionTLS13,
		Certificates: []tls.Certificate{cert},
		// Verification is the quote check, not WebPKI: names and chains
		// prove nothing about enclaves, so the stock verifier is off and
		// VerifyPeerCertificate is the real gate.
		InsecureSkipVerify:    true,
		VerifyPeerCertificate: verifyPeer,
		VerifyConnection:      verifyConn,
	}

	c.client = base.Clone()
	c.client.ServerName = serverName
	c.client.ClientSessionCache = tls.NewLRUClientSessionCache(64)

	c.server = base.Clone()
	c.server.ClientAuth = tls.RequireAnyClientCert
	if err := c.RotateTicketSecret(); err != nil {
		return nil, err
	}
	c.ticketRotations.Store(0) // the initial key is not a rotation
	return c, nil
}

// NewProvisioned builds a Config for a daemon in a provisioned fleet:
// every endpoint holds the same provisioning secret, from which each
// side derives the other's quote-verification key — no shared platform
// registry required, which is what lets two separate processes attest
// each other. The endpoint presents codeIdentity (run in a fresh channel
// enclave on m) and accepts peers running any of the trusted code
// identities.
func NewProvisioned(name string, m *sgx.Machine, secret, codeIdentity []byte, trustedCode ...[]byte) (*Config, error) {
	if m == nil {
		return nil, errors.New("ratls: nil machine")
	}
	plat, err := attest.NewProvisionedPlatform(name, m, secret)
	if err != nil {
		return nil, err
	}
	enc, err := m.CreateEnclave("ratls-channel", codeIdentity, 0)
	if err != nil {
		return nil, fmt.Errorf("ratls: channel enclave: %w", err)
	}
	verifier := attest.NewService()
	verifier.EnableProvisioning(secret)
	for _, code := range trustedCode {
		verifier.TrustMeasurement(sgx.MeasurementOf(code))
	}
	return New(Options{Platform: plat, Enclave: enc, Verifier: verifier, ChargeTo: m})
}

// Insecure returns a Config that performs no TLS and no attestation:
// connections pass through as plaintext. It exists as an explicit escape
// hatch for tests and benchmark paths; daemons only use it behind an
// -insecure flag.
func Insecure() *Config {
	return &Config{insecure: true}
}

// IsInsecure reports whether this Config is the plaintext escape hatch.
func (c *Config) IsInsecure() bool { return c.insecure }

// RotateTicketSecret replaces the server-side session-ticket secret with
// a fresh random one (in a real deployment: generated and held inside
// the enclave). All outstanding tickets stop decrypting, so every
// resumed peer falls back to a full, quote-verified handshake — the
// revocation catch-up path.
func (c *Config) RotateTicketSecret() error {
	if c.insecure {
		return nil
	}
	var key [32]byte
	if _, err := rand.Read(key[:]); err != nil {
		return fmt.Errorf("ratls: ticket secret: %w", err)
	}
	c.server.SetSessionTicketKeys([][32]byte{key})
	c.ticketRotations.Add(1)
	return nil
}

// Client wraps conn as the initiating side of the channel and runs the
// handshake. On failure the connection is closed and the error wraps
// ErrHandshake (plus the underlying attest error, when the rejection is
// ours).
func (c *Config) Client(conn net.Conn) (net.Conn, error) {
	if c.insecure {
		return &InsecureConn{Conn: conn}, nil
	}
	return c.handshake(tls.Client(conn, c.client), "client")
}

// Server wraps conn as the accepting side of the channel and runs the
// handshake.
func (c *Config) Server(conn net.Conn) (net.Conn, error) {
	if c.insecure {
		return &InsecureConn{Conn: conn}, nil
	}
	return c.handshake(tls.Server(conn, c.server), "server")
}

func (c *Config) handshake(tconn *tls.Conn, mode string) (net.Conn, error) {
	span := c.tracer.Load().Start("ratls.handshake")
	span.Annotate("mode", mode)
	if c.handshakeTimeout > 0 {
		_ = tconn.SetDeadline(time.Now().Add(c.handshakeTimeout))
	}
	if err := tconn.Handshake(); err != nil {
		c.handshakeFailures.Add(1)
		c.flight.Load().Mark("ratls.handshake_failure", "mode", mode, "err", err.Error())
		_ = tconn.Close()
		err = fmt.Errorf("%w: %w", ErrHandshake, err)
		span.End(err)
		return nil, err
	}
	if c.handshakeTimeout > 0 {
		_ = tconn.SetDeadline(time.Time{})
	}
	resumed := tconn.ConnectionState().DidResume
	if resumed {
		c.resumedHandshakes.Add(1)
	} else {
		c.coldHandshakes.Add(1)
	}
	span.Annotate("resumed", fmt.Sprintf("%t", resumed))
	span.End(nil)
	return &Conn{Conn: tconn}, nil
}

// Conn is an attested connection: TLS with the peer's enclave identity
// verified (directly on a cold handshake, transitively via the session
// ticket on a resumed one). SealForChannel releases secret material only
// into this type or the explicit InsecureConn.
type Conn struct {
	*tls.Conn
}

// Resumed reports whether this connection skipped quote verification by
// resuming a prior attested session.
func (c *Conn) Resumed() bool { return c.ConnectionState().DidResume }

// PeerMeasurement returns the peer enclave's measurement from the quote
// bound into its certificate.
func (c *Conn) PeerMeasurement() (sgx.Measurement, error) {
	certs := c.ConnectionState().PeerCertificates
	if len(certs) == 0 {
		return sgx.Measurement{}, ErrNoQuote
	}
	q, err := quoteFromCert(certs[0])
	if err != nil {
		return sgx.Measurement{}, err
	}
	return q.Report.Source, nil
}

// InsecureConn marks a connection the operator explicitly opted out of
// attestation for (tests, benchmarks, -insecure daemons). It exists as
// a distinct type so the sanitizer gate in SealForChannel — and the
// secretflow analyzer behind it — can tell "deliberately insecure" from
// "forgot to wrap".
type InsecureConn struct {
	net.Conn
}

// mintCredential generates the ephemeral key pair and self-signed
// certificate, with the quote over the public key's hash embedded as an
// extension.
func mintCredential(p *attest.Platform, e *sgx.Enclave) (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: generating key: %w", err)
	}
	spki, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: encoding public key: %w", err)
	}
	hash := sha256.Sum256(spki)
	quote, err := p.CreateQuote(e, hash[:])
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: minting quote: %w", err)
	}
	return certWithQuote(key, quote)
}

// certWithQuote self-signs a certificate for key carrying quote in the
// RA-TLS extension. Split from mintCredential so tests can bind the
// wrong quote to a key and watch it be rejected.
func certWithQuote(key *ecdsa.PrivateKey, quote attest.Quote) (tls.Certificate, error) {
	quoteJSON, err := json.Marshal(quote)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: encoding quote: %w", err)
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: serial: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: "securelease-ratls"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(365 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
		ExtraExtensions: []pkix.Extension{{
			Id:    oidQuoteExtension,
			Value: quoteJSON,
		}},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("ratls: self-signing: %w", err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}

// verifyQuotedCert is the cold-handshake gate: parse the leaf, extract
// the quote, check the key binding, and verify the quote at the service.
func verifyQuotedCert(rawCerts [][]byte, svc *attest.Service, chargeTo *sgx.Machine) error {
	if len(rawCerts) == 0 {
		return ErrNoQuote
	}
	leaf, err := x509.ParseCertificate(rawCerts[0])
	if err != nil {
		return fmt.Errorf("ratls: parsing peer certificate: %w", err)
	}
	quote, err := quoteFromCert(leaf)
	if err != nil {
		return err
	}
	hash := sha256.Sum256(leaf.RawSubjectPublicKeyInfo)
	var bound [attest.ReportDataSize]byte
	copy(bound[:], hash[:])
	if quote.Report.Data != bound {
		return ErrQuoteBinding
	}
	if err := svc.VerifyQuote(quote, chargeTo); err != nil {
		return fmt.Errorf("ratls: peer quote: %w", err)
	}
	return nil
}

// quoteFromCert extracts and decodes the quote extension.
func quoteFromCert(cert *x509.Certificate) (attest.Quote, error) {
	for _, ext := range cert.Extensions {
		if ext.Id.Equal(oidQuoteExtension) {
			var q attest.Quote
			if err := json.Unmarshal(ext.Value, &q); err != nil {
				return attest.Quote{}, fmt.Errorf("ratls: decoding quote extension: %w", err)
			}
			return q, nil
		}
	}
	return attest.Quote{}, ErrNoQuote
}
