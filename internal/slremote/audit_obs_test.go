package slremote

import (
	"testing"

	"repro/internal/attest"
	"repro/internal/audit"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/seccrypto"
)

// TestAuditTrailCoversLifecycle drives every decision the audit log is
// specified to record — issue, init, renew (with Algorithm-1 inputs),
// denial, crash forfeit, escrow, revocation — and checks the trail.
func TestAuditTrailCoversLifecycle(t *testing.T) {
	log, err := audit.Open("", seccrypto.Key{})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t)
	s.AttachAudit(log)

	if err := s.RegisterLicense("lic", lease.CountBased, 1000); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterLicense("doomed", lease.CountBased, 10); err != nil {
		t.Fatal(err)
	}
	res, err := s.InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	slid := res.SLID
	grant, err := s.RenewLease(slid, "lic")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Revoke("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RenewLease(slid, "doomed"); err == nil {
		t.Fatal("renewal against a revoked license succeeded")
	}
	key, err := seccrypto.NewKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EscrowRootKey(slid, key); err != nil {
		t.Fatal(err)
	}
	// A second client holding an outstanding lease crashes: pessimistic
	// forfeit.
	res2, err := s.InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RenewLease(res2.SLID, "lic"); err != nil {
		t.Fatal(err)
	}
	// Its next init finds no escrowed key: the crash is detected there.
	if _, err := s.InitClient(res2.SLID, attest.Quote{}, nil); err != nil {
		t.Fatal(err)
	}

	if err := log.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	byOp := make(map[string][]audit.Record)
	for _, rec := range log.Tail(0) {
		byOp[rec.Op] = append(byOp[rec.Op], rec)
	}
	for _, op := range []string{
		audit.OpIssue, audit.OpInit, audit.OpRenew, audit.OpDeny,
		audit.OpRevoke, audit.OpEscrow, audit.OpCrashForfeit,
	} {
		if len(byOp[op]) == 0 {
			t.Errorf("no %q record in the audit trail", op)
		}
	}

	renews := byOp[audit.OpRenew]
	first := renews[0]
	if first.SLID != slid || first.License != "lic" || first.Units != grant.Units {
		t.Errorf("renew record = %+v, want slid %s lic/%d units", first, slid, grant.Units)
	}
	if first.Alg1 == nil {
		t.Fatal("renew record carries no Algorithm-1 inputs")
	}
	if first.Alg1.Alpha <= 0 || first.Alg1.Alpha > 1 ||
		first.Alg1.ScaleDown <= 0 || first.Alg1.Health <= 0 || first.Alg1.Reliability <= 0 {
		t.Errorf("Algorithm-1 inputs out of range: %+v", first.Alg1)
	}
	if deny := byOp[audit.OpDeny][0]; deny.License != "doomed" || deny.Err == "" {
		t.Errorf("deny record = %+v, want doomed with a reason", deny)
	}
	if forfeit := byOp[audit.OpCrashForfeit][0]; forfeit.SLID != res2.SLID || forfeit.Units <= 0 {
		t.Errorf("crash-forfeit record = %+v, want %s with positive units", forfeit, res2.SLID)
	}
}

// TestAlg1GaugesPerClient is the introspection acceptance check: after a
// renewal the slremote_alg1_* gauges expose that client's Algorithm-1
// state under its SLID label.
func TestAlg1GaugesPerClient(t *testing.T) {
	s := newServer(t)
	reg := obs.NewRegistry()
	s.ExposeMetrics(reg)
	if err := s.RegisterLicense("lic", lease.CountBased, 1000); err != nil {
		t.Fatal(err)
	}
	a, err := s.InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetClientProfile(b.SLID, 0.5, 0.9, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RenewLease(a.SLID, "lic"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RenewLease(b.SLID, "lic"); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, slid := range []string{a.SLID, b.SLID} {
		labels := map[string]string{"client": slid}
		alpha := snap.Get("slremote_alg1_alpha", labels)
		if alpha <= 0 || alpha > 1 {
			t.Errorf("slremote_alg1_alpha{client=%s} = %v, want in (0,1]", slid, alpha)
		}
		if v := snap.Get("slremote_alg1_scale_down", labels); v <= 0 {
			t.Errorf("slremote_alg1_scale_down{client=%s} = %v, want > 0", slid, v)
		}
		if v := snap.Get("slremote_alg1_health", labels); v <= 0 {
			t.Errorf("slremote_alg1_health{client=%s} = %v, want > 0", slid, v)
		}
		if v := snap.Get("slremote_alg1_reliability", labels); v <= 0 {
			t.Errorf("slremote_alg1_reliability{client=%s} = %v, want > 0", slid, v)
		}
	}
	// The unhealthy client's health gauge reflects its profile.
	if v := snap.Get("slremote_alg1_health", map[string]string{"client": b.SLID}); v != 0.5 {
		t.Errorf("slremote_alg1_health{client=%s} = %v, want 0.5", b.SLID, v)
	}

	// SetClientProfile refreshes the gauges without a renewal.
	if err := s.SetClientProfile(a.SLID, 0.7, 0.8, 1); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if v := snap.Get("slremote_alg1_health", map[string]string{"client": a.SLID}); v != 0.7 {
		t.Errorf("health gauge after SetClientProfile = %v, want 0.7", v)
	}
}
