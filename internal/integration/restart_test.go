package integration

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/attest"
	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
	"repro/internal/store"
	"repro/internal/wire"
)

// bootDurableNode starts one incarnation of a persistent SL-Remote
// deployment on dir — cluster.Node, the composition cmd/sl-remote serves
// through — with an obs bundle for its store metrics and the deployment's
// audit chain reopened beside the WAL.
func bootDurableNode(t *testing.T, dir string, sealKey seccrypto.Key, service *attest.Service) (*cluster.Node, *audit.Log) {
	t.Helper()
	aud, err := audit.Open(filepath.Join(dir, "audit.log"), sealKey)
	if err != nil {
		t.Fatalf("audit.Open: %v", err)
	}
	node, err := cluster.StartNode(cluster.NodeOptions{
		Dir:           dir,
		SealKey:       sealKey,
		Config:        slremote.DefaultConfig(),
		Service:       service,
		Channel:       ratls.Insecure(),
		Audit:         aud,
		SyncMode:      store.SyncBatched,
		SnapshotEvery: 8,
		Obs:           fleet.NewNodeObs("restart"),
	})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	return node, aud
}

// TestRestartCycleRecoversLedgerAndEscrow is the paper's durability story
// end to end: a client burns more than half of a count-based license over
// TCP and escrows its root key at graceful shutdown; the server is then
// killed without a final snapshot (so recovery must replay the WAL tail)
// and restarted from the state directory. The restarted server must hold
// bit-identical state, release the escrowed root key on re-init, and never
// have written the plaintext root key to disk.
func TestRestartCycleRecoversLedgerAndEscrow(t *testing.T) {
	dir := t.TempDir()
	sealKey, err := seccrypto.NewKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	service := attest.NewService()

	// --- Incarnation 1: fresh state, real workload over TCP. ---
	n1, aud1 := bootDurableNode(t, dir, sealKey, service)
	const pool = 1000
	if err := n1.Remote().RegisterLicense("lic", lease.CountBased, pool); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	if err := n1.Remote().RegisterLicense("doomed", lease.CountBased, 5); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	if err := n1.Remote().Revoke("doomed"); err != nil {
		t.Fatalf("Revoke: %v", err)
	}

	m, err := sgx.NewMachine(sgx.MachineConfig{Name: "restart-client", EPCBytes: 8 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	plat, err := attest.NewPlatform("restart-client", m)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	service.RegisterPlatform(plat)
	service.TrustMeasurement(sgx.MeasurementOf(sllocal.EnclaveCodeIdentity))

	state := &sllocal.UntrustedState{} // survives the client "restart" below
	cl1, err := wire.Dial(n1.Addr(), ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	svc1, err := sllocal.New(sllocal.Config{TokenBatch: 10}, sllocal.Deps{
		Machine: m, Platform: plat, Remote: cl1, State: state,
	})
	if err != nil {
		t.Fatalf("sllocal.New: %v", err)
	}
	if err := svc1.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	slid := svc1.SLID()
	app, err := m.CreateEnclave("app", []byte("app"), 0)
	if err != nil {
		t.Fatalf("app: %v", err)
	}
	served := 0
	for served < pool*6/10 { // burn >50% of the budget
		tok, err := svc1.RequestToken(app, "lic")
		if err != nil {
			t.Fatalf("RequestToken after %d checks: %v", served, err)
		}
		for tok.Use() && served < pool*6/10 {
			served++
		}
	}
	// Graceful client shutdown: lease tree committed, root key escrowed.
	if err := svc1.Shutdown(); err != nil {
		t.Fatalf("client Shutdown: %v", err)
	}
	if err := cl1.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}

	// Make sure the kill below leaves a WAL tail to replay: if the
	// workload's last mutation landed exactly on a compaction boundary,
	// append profile updates until the current generation's log is
	// non-empty (one suffices right after a compaction).
	for i := 0; i < 10; i++ {
		rec, err := store.Recover(dir)
		if err != nil {
			t.Fatalf("peek WAL: %v", err)
		}
		if len(rec.Records) > 0 {
			break
		}
		if err := n1.Remote().SetClientProfile(slid, 0.99, 0.99, 1); err != nil {
			t.Fatalf("SetClientProfile: %v", err)
		}
	}
	want := n1.Remote().ExportState()
	if want.Licenses["lic"].Remaining > pool/2 {
		t.Fatalf("burned only %d of %d units; test wants >50%%", pool-want.Licenses["lic"].Remaining, pool)
	}
	rootKey := want.Clients[slid].Escrow
	if len(rootKey) == 0 {
		t.Fatal("no root key escrowed at graceful shutdown")
	}
	snap1 := n1.Obs().Registry.Snapshot()
	for _, name := range []string{"store_wal_appends_total", "store_wal_bytes_total", "store_snapshots_total", "store_snapshot_bytes"} {
		if v := snap1[obs.Key(name, nil)]; v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	// The audit trail covered the whole first incarnation and verifies
	// before the kill.
	if err := aud1.Verify(); err != nil {
		t.Fatalf("audit Verify before restart: %v", err)
	}
	auditLen := aud1.Len()
	auditHead := aud1.HeadHash()
	if auditLen == 0 {
		t.Fatal("no audit records after the first incarnation")
	}
	// Kill without a drain or a final snapshot: recovery must replay the
	// WAL tail, not just load the last compaction point.
	n1.Kill()
	if err := aud1.Close(); err != nil {
		t.Fatalf("audit Close: %v", err)
	}

	// The escrowed root key must never hit disk in plaintext — in the
	// state store's files or in the audit log's directory beside them.
	files := 0
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		files++
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.Contains(raw, rootKey) {
			t.Errorf("plaintext root-key bytes on disk in %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("state directory is empty")
	}

	// --- Incarnation 2: recover from the state directory. ---
	n2, aud2 := bootDurableNode(t, dir, sealKey, service)
	defer func() {
		shutdownNode(t, n2)
		_ = aud2.Close()
	}()

	// The audit chain survived the crash-restart: same length, same head,
	// and the reopened log still verifies end to end.
	if got := aud2.Len(); got != auditLen {
		t.Errorf("audit chain length after restart = %d, want %d", got, auditLen)
	}
	if got := aud2.HeadHash(); got != auditHead {
		t.Errorf("audit head hash changed across restart: %x != %x", got, auditHead)
	}
	if err := aud2.Verify(); err != nil {
		t.Errorf("audit Verify after restart: %v", err)
	}
	// WAL replay must not have re-emitted audit records for replayed
	// mutations — the chain only grows with NEW decisions (checked below).

	got := n2.Remote().ExportState()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state differs from pre-restart state\n got: %+v\nwant: %+v", got, want)
	}
	snap2 := n2.Obs().Registry.Snapshot()
	if v := snap2[obs.Key("store_replayed_records_total", nil)]; v <= 0 {
		t.Errorf("store_replayed_records_total = %v, want > 0 (server was killed with a WAL tail)", v)
	}
	if v := snap2[obs.Key("store_recovery_seconds", nil)]; v <= 0 {
		t.Errorf("store_recovery_seconds = %v, want > 0", v)
	}

	// Re-init the same client (same machine, same untrusted state): the
	// recovered server must confirm the SLID and release the escrowed key,
	// and the restored lease tree must keep serving from the same budget.
	cl2, err := wire.Dial(n2.Addr(), ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl2.Close()
	svc2, err := sllocal.New(sllocal.Config{TokenBatch: 10}, sllocal.Deps{
		Machine: m, Platform: plat, Remote: cl2, State: state,
	})
	if err != nil {
		t.Fatalf("sllocal.New: %v", err)
	}
	if err := svc2.Init(); err != nil {
		t.Fatalf("re-Init after restart: %v", err)
	}
	if svc2.SLID() != slid {
		t.Fatalf("SLID changed across restart: %q → %q", slid, svc2.SLID())
	}
	if st := n2.Remote().ExportState(); st.Clients[slid].HasEscrow {
		t.Error("escrow not released (single-use) after re-init")
	}
	app2, err := m.CreateEnclave("app2", []byte("app"), 0)
	if err != nil {
		t.Fatalf("app2: %v", err)
	}
	extra := 0
	for extra < 100 {
		tok, err := svc2.RequestToken(app2, "lic")
		if err != nil {
			t.Fatalf("post-restart RequestToken after %d: %v", extra, err)
		}
		for tok.Use() && extra < 100 {
			extra++
		}
	}
	lic, err := n2.Remote().License("lic")
	if err != nil {
		t.Fatal(err)
	}
	if lic.Remaining < 0 || lic.Remaining > want.Licenses["lic"].Remaining {
		t.Errorf("post-restart remaining %d out of range (pre-restart %d)", lic.Remaining, want.Licenses["lic"].Remaining)
	}
	if got, err := n2.Remote().License("doomed"); err != nil || !got.Revoked {
		t.Errorf("revocation lost across restart: %+v, %v", got, err)
	}
	if err := svc2.Shutdown(); err != nil {
		t.Fatalf("final client Shutdown: %v", err)
	}

	// The post-restart workload extended the recovered chain: new init,
	// renew, and escrow decisions link onto the pre-restart head.
	if got := aud2.Len(); got <= auditLen {
		t.Errorf("audit chain did not grow after restart: %d <= %d", got, auditLen)
	}
	if err := aud2.Verify(); err != nil {
		t.Errorf("audit Verify after post-restart workload: %v", err)
	}
	ops := make(map[string]int)
	for _, rec := range aud2.Tail(0) {
		ops[rec.Op]++
	}
	for _, op := range []string{audit.OpInit, audit.OpRenew, audit.OpEscrow} {
		if ops[op] == 0 {
			t.Errorf("no %q audit record after the restart cycle (ops: %v)", op, ops)
		}
	}
}
