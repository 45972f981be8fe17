package integration

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/cluster"
	"repro/internal/lease"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
	"repro/internal/wire"
)

// startRatlsNode starts one incarnation of a durable SL-Remote on dir
// speaking the channel config rc: cluster.Node, the composition
// cmd/sl-remote serves through.
func startRatlsNode(t *testing.T, dir string, sealKey seccrypto.Key, rc *ratls.Config) *cluster.Node {
	t.Helper()
	node, err := cluster.StartNode(cluster.NodeOptions{
		Dir: dir, SealKey: sealKey, Config: slremote.DefaultConfig(), Channel: rc,
	})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	t.Cleanup(func() { shutdownNode(t, node) })
	return node
}

// shutdownNode drains, snapshots and closes node; a no-op the second time.
func shutdownNode(t *testing.T, node *cluster.Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := node.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestRatlsDaemonLifecycle replays the two-daemon deployment over the
// attested channel, end to end: the SL-Local daemon initializes (cold
// quote-verified handshake), renews leases, escrows its root key at
// graceful shutdown, and re-initializes against a restarted SL-Remote —
// resuming its TLS session against the new incarnation because the
// server's channel config (and with it the ticket secret) survives the
// restart, exactly as cmd/sl-remote keeps one Config for its lifetime.
func TestRatlsDaemonLifecycle(t *testing.T) {
	secret := []byte("fleet-provisioning-secret")

	// Server daemon: a dedicated channel machine presenting SL-Remote's
	// code identity, as cmd/sl-remote builds it.
	srvMachine, err := sgx.NewMachine(sgx.MachineConfig{Name: "remote-daemon", EPCBytes: 8 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	srvRC, err := ratls.NewProvisioned("remote-daemon", srvMachine, secret,
		slremote.EnclaveCodeIdentity, sllocal.EnclaveCodeIdentity)
	if err != nil {
		t.Fatalf("NewProvisioned(server): %v", err)
	}
	dir := t.TempDir()
	sealKey, err := seccrypto.NewKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	d1 := startRatlsNode(t, dir, sealKey, srvRC)
	if err := d1.Remote().RegisterLicense("lic", lease.CountBased, 10_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}

	// Client daemon: its own machine, platform, and channel credential
	// derived from the same provisioning secret.
	m, err := sgx.NewMachine(sgx.MachineConfig{Name: "local-daemon", EPCBytes: 8 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	plat, err := attest.NewPlatform("local-daemon", m)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	cliRC, err := ratls.NewProvisioned("local-daemon", m, secret,
		sllocal.EnclaveCodeIdentity, slremote.EnclaveCodeIdentity)
	if err != nil {
		t.Fatalf("NewProvisioned(client): %v", err)
	}

	client, err := wire.Dial(d1.Addr(), cliRC)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	state := &sllocal.UntrustedState{}
	svc, err := sllocal.New(sllocal.Config{TokenBatch: 8}, sllocal.Deps{
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
		tok, err := svc.RequestToken(app, "lic")
		if err != nil {
			t.Fatalf("RequestToken %d: %v", i, err)
		}
		for tok.Use() {
		}
	}
	if svc.Stats().Renewals == 0 {
		t.Fatal("workload performed no lease renewal")
	}
	// Graceful shutdown escrows the root key over the attested channel.
	if err := svc.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := cliRC.Stats(); st.ColdHandshakes != 1 || st.QuoteVerifications != 1 {
		t.Fatalf("first incarnation channel stats: %+v, want one quote-verified cold handshake", st)
	}

	// Restart the server daemon: drained and snapshotted, then a new node
	// recovered from the same directory with the SAME channel config —
	// the deployment pattern of a daemon restart.
	shutdownNode(t, d1)
	_ = client.Close()
	d2 := startRatlsNode(t, dir, sealKey, srvRC)

	client2, err := wire.Dial(d2.Addr(), cliRC)
	if err != nil {
		t.Fatalf("re-Dial: %v", err)
	}
	defer client2.Close()
	svc2, err := sllocal.New(sllocal.Config{TokenBatch: 8}, sllocal.Deps{
		Machine: m, Platform: plat, Remote: client2, State: state,
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
		t.Fatalf("renewals after escrow restore = %d, want 0 (lease tree restored, not renewed)", got)
	}

	// The reconnect resumed: the ticket outlived the server restart, and
	// resumption skipped re-attestation (still exactly one verification).
	st := cliRC.Stats()
	if st.ResumedHandshakes == 0 {
		t.Fatalf("reconnect after server restart did not resume: %+v", st)
	}
	if st.QuoteVerifications != 1 {
		t.Fatalf("resumed reconnect re-verified the quote: %+v", st)
	}

	// A daemon provisioned with the wrong secret cannot join the fleet:
	// its quote key derivation diverges, so the handshake dies on quote
	// verification even though it presents the right code identity.
	evilMachine, err := sgx.NewMachine(sgx.MachineConfig{Name: "impostor", EPCBytes: 8 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	evilRC, err := ratls.NewProvisioned("impostor", evilMachine, []byte("wrong-secret"),
		sllocal.EnclaveCodeIdentity, slremote.EnclaveCodeIdentity)
	if err != nil {
		t.Fatalf("NewProvisioned(impostor): %v", err)
	}
	if _, err := wire.Dial(d2.Addr(), evilRC); !errors.Is(err, ratls.ErrHandshake) {
		t.Fatalf("impostor dial: got %v, want ErrHandshake", err)
	}
}
