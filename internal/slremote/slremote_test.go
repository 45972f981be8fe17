package slremote

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s
}

func initClient(t *testing.T, s *Server) string {
	t.Helper()
	res, err := s.InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("InitClient: %v", err)
	}
	return res.SLID
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{D: 0.5, HealthThreshold: 0.9, Beta: 0.01, TauFraction: 0.1},
		{D: 4, HealthThreshold: 2, Beta: 0.01, TauFraction: 0.1},
		{D: 4, HealthThreshold: 0.9, Beta: 0, TauFraction: 0.1},
		{D: 4, HealthThreshold: 0.9, Beta: 0.01, TauFraction: 0},
		{D: 4, HealthThreshold: 0.9, Beta: 0.01, TauFraction: 1.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRegisterLicense(t *testing.T) {
	s := newServer(t)
	if err := s.RegisterLicense("lic", lease.CountBased, 1000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	if err := s.RegisterLicense("lic", lease.CountBased, 1000); err == nil {
		t.Fatal("duplicate license accepted")
	}
	if err := s.RegisterLicense("neg", lease.CountBased, 0); err == nil {
		t.Fatal("zero-budget license accepted")
	}
	lic, err := s.License("lic")
	if err != nil {
		t.Fatalf("License: %v", err)
	}
	if lic.TotalGCL != 1000 || lic.Remaining != 1000 {
		t.Fatalf("license = %+v", lic)
	}
	if lic.Tau != 100 { // 10% of 1000
		t.Fatalf("tau = %v, want 100", lic.Tau)
	}
	if _, err := s.License("nope"); !errors.Is(err, ErrUnknownLicense) {
		t.Fatalf("unknown license: %v", err)
	}
}

func TestInitClientAssignsStableSLIDs(t *testing.T) {
	s := newServer(t)
	a := initClient(t, s)
	b := initClient(t, s)
	if a == b {
		t.Fatal("two clients got the same SLID")
	}
	// Re-init with an existing SLID keeps it.
	res, err := s.InitClient(a, attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("re-init: %v", err)
	}
	if res.SLID != a {
		t.Fatalf("re-init changed SLID: %q → %q", a, res.SLID)
	}
	if s.Stats().RemoteAttestations != 3 {
		t.Fatalf("RA count = %d, want 3", s.Stats().RemoteAttestations)
	}
}

func TestInitClientVerifiesQuote(t *testing.T) {
	svc := attest.NewService()
	s, err := NewServer(DefaultConfig(), svc)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	m, err := sgx.NewMachine(sgx.MachineConfig{EPCBytes: 1 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	plat, err := attest.NewPlatform("client", m)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	encl, err := m.CreateEnclave("sl-local", []byte("sl-local-code"), 0)
	if err != nil {
		t.Fatalf("CreateEnclave: %v", err)
	}
	quote, err := plat.CreateQuote(encl, nil)
	if err != nil {
		t.Fatalf("CreateQuote: %v", err)
	}

	// Unregistered platform → attestation failure.
	if _, err := s.InitClient("", quote, m); !errors.Is(err, ErrAttestationFailed) {
		t.Fatalf("unattested init: got %v", err)
	}

	svc.RegisterPlatform(plat)
	svc.TrustMeasurement(encl.Measurement())
	res, err := s.InitClient("", quote, m)
	if err != nil {
		t.Fatalf("attested init: %v", err)
	}
	if res.SLID == "" {
		t.Fatal("empty SLID")
	}
	if m.Stats().RemoteAttests != 2 {
		t.Fatalf("client RA charges = %d, want 2", m.Stats().RemoteAttests)
	}
}

func TestRenewLeaseBasicShare(t *testing.T) {
	s := newServer(t)
	if err := s.RegisterLicense("lic", lease.CountBased, 10_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	slid := initClient(t, s)
	g, err := s.RenewLease(slid, "lic")
	if err != nil {
		t.Fatalf("RenewLease: %v", err)
	}
	// Single perfect-health client: G = TG = 10000, g = G/D = 2500; the
	// expected loss is 0 (h=1) so line 16 leaves it at 2500.
	if g.Units != 2500 {
		t.Fatalf("grant = %d, want 2500 (TG/D)", g.Units)
	}
	if g.GCL.Kind != lease.CountBased || g.GCL.Counter != 2500 {
		t.Fatalf("grant GCL = %+v", g.GCL)
	}
	lic, err := s.License("lic")
	if err != nil {
		t.Fatalf("License: %v", err)
	}
	if lic.Remaining != 7500 {
		t.Fatalf("remaining = %d, want 7500", lic.Remaining)
	}
	if s.Outstanding(slid, "lic") != 2500 {
		t.Fatalf("outstanding = %d", s.Outstanding(slid, "lic"))
	}
}

func TestRenewLeaseUnknowns(t *testing.T) {
	s := newServer(t)
	if _, err := s.RenewLease("ghost", "lic"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("unknown client: %v", err)
	}
	slid := initClient(t, s)
	if _, err := s.RenewLease(slid, "lic"); !errors.Is(err, ErrUnknownLicense) {
		t.Fatalf("unknown license: %v", err)
	}
}

func TestRenewLeaseConcurrencySplitsShare(t *testing.T) {
	s := newServer(t)
	if err := s.RegisterLicense("lic", lease.CountBased, 10_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	a := initClient(t, s)
	b := initClient(t, s)
	ga, err := s.RenewLease(a, "lic")
	if err != nil {
		t.Fatalf("RenewLease a: %v", err)
	}
	// b now competes with a (a is a holder): C=2, α_b normalized to 1/2.
	gb, err := s.RenewLease(b, "lic")
	if err != nil {
		t.Fatalf("RenewLease b: %v", err)
	}
	if gb.Units >= ga.Units {
		t.Fatalf("second concurrent grant %d should be smaller than first %d", gb.Units, ga.Units)
	}
	// G_b = (1/2)·TG/2 = 2500, g = 625.
	if gb.Units != 625 {
		t.Fatalf("grant b = %d, want 625", gb.Units)
	}
}

func TestRenewLeaseHealthPenalty(t *testing.T) {
	s := newServer(t)
	if err := s.RegisterLicense("lic", lease.CountBased, 10_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	slid := initClient(t, s)
	// Health 0.5 (below T_H=0.9): crash penalty applies, no network benefit.
	if err := s.SetClientProfile(slid, 0.5, 1.0, 1.0); err != nil {
		t.Fatalf("SetClientProfile: %v", err)
	}
	g, err := s.RenewLease(slid, "lic")
	if err != nil {
		t.Fatalf("RenewLease: %v", err)
	}
	// g = 2500·0.5 = 1250, then expected loss = 1250·0.5 = 625 > τ=1000?
	// No: 625 < 1000, so line 16: β=(1000−625)/1000=0.375, g=1250·0.375=468.
	if g.Units != 468 {
		t.Fatalf("grant = %d, want 468", g.Units)
	}
}

func TestRenewLeaseNetworkBenefit(t *testing.T) {
	s := newServer(t)
	if err := s.RegisterLicense("lic", lease.CountBased, 10_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	slid := initClient(t, s)
	// Healthy client (h=1 > T_H) on a flaky network (n=0.5): benefit 1/n=2,
	// capped at G_i.
	if err := s.SetClientProfile(slid, 1.0, 0.5, 1.0); err != nil {
		t.Fatalf("SetClientProfile: %v", err)
	}
	g, err := s.RenewLease(slid, "lic")
	if err != nil {
		t.Fatalf("RenewLease: %v", err)
	}
	// g = 2500·1·2 = 5000, exp loss 0 → unchanged.
	if g.Units != 5000 {
		t.Fatalf("grant = %d, want 5000 (network-compensated)", g.Units)
	}

	// Very flaky network: capped at G_i = 10000.
	slid2 := initClient(t, s)
	if err := s.SetClientProfile(slid2, 1.0, 0.01, 1.0); err != nil {
		t.Fatalf("SetClientProfile: %v", err)
	}
	g2, err := s.RenewLease(slid2, "lic")
	if err != nil {
		t.Fatalf("RenewLease: %v", err)
	}
	// Two holders now: G = TG·(1/2)/2 = 2500; g = 625·100 capped at 2500.
	if g2.Units != 2500 {
		t.Fatalf("grant = %d, want capped 2500", g2.Units)
	}
}

func TestRenewLeaseExpectedLossBound(t *testing.T) {
	s := newServer(t)
	if err := s.RegisterLicense("lic", lease.CountBased, 10_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	// An unhealthy fleet: each grant g at health h contributes g(1−h) to
	// the license's expected loss; τ = 1000.
	const tau = 1000.0
	var totalLoss float64
	for i := 0; i < 6; i++ {
		slid := initClient(t, s)
		if err := s.SetClientProfile(slid, 0.4, 1.0, 1.0); err != nil {
			t.Fatalf("SetClientProfile: %v", err)
		}
		g, err := s.RenewLease(slid, "lic")
		if err != nil {
			// Pool or policy exhaustion is acceptable late in the loop.
			if errors.Is(err, ErrLicenseExhausted) {
				break
			}
			t.Fatalf("RenewLease %d: %v", i, err)
		}
		totalLoss += float64(g.Units) * (1 - 0.4)
	}
	if totalLoss > tau {
		t.Fatalf("expected loss %v exceeds τ %v", totalLoss, tau)
	}
}

func TestRenewLeaseExhaustion(t *testing.T) {
	s := newServer(t)
	if err := s.RegisterLicense("lic", lease.CountBased, 10); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	slid := initClient(t, s)
	var total int64
	for i := 0; i < 100; i++ {
		g, err := s.RenewLease(slid, "lic")
		if err != nil {
			if !errors.Is(err, ErrLicenseExhausted) {
				t.Fatalf("RenewLease: %v", err)
			}
			break
		}
		total += g.Units
	}
	if total > 10 {
		t.Fatalf("granted %d units from a 10-unit license", total)
	}
}

func TestRevokedLicenseDeniesRenewal(t *testing.T) {
	s := newServer(t)
	if err := s.RegisterLicense("lic", lease.CountBased, 100); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	slid := initClient(t, s)
	if err := s.Revoke("lic"); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	if _, err := s.RenewLease(slid, "lic"); !errors.Is(err, ErrLicenseRevoked) {
		t.Fatalf("revoked renewal: %v", err)
	}
	if err := s.Revoke("nope"); !errors.Is(err, ErrUnknownLicense) {
		t.Fatalf("revoke unknown: %v", err)
	}
	if s.Stats().RenewalsDenied != 1 {
		t.Fatalf("denied = %d", s.Stats().RenewalsDenied)
	}
}

func TestEscrowLifecycle(t *testing.T) {
	s := newServer(t)
	slid := initClient(t, s)
	key, err := seccrypto.NewKey(nil)
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	if err := s.EscrowRootKey(slid, key); err != nil {
		t.Fatalf("EscrowRootKey: %v", err)
	}
	res, err := s.InitClient(slid, attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("re-init: %v", err)
	}
	if !res.HasOBK {
		t.Fatal("no OBK released")
	}
	if res.OBK != key {
		t.Fatal("OBK mismatch")
	}
	// Escrow is single-use: a second init has nothing.
	res2, err := s.InitClient(slid, attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("third init: %v", err)
	}
	if res2.HasOBK {
		t.Fatal("escrow released twice")
	}
	if err := s.EscrowRootKey("ghost", key); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("escrow for unknown client: %v", err)
	}
}

func TestCrashForfeitsLeasesAndEscrow(t *testing.T) {
	s := newServer(t)
	if err := s.RegisterLicense("lic", lease.CountBased, 10_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	slid := initClient(t, s)
	g, err := s.RenewLease(slid, "lic")
	if err != nil {
		t.Fatalf("RenewLease: %v", err)
	}
	key, err := seccrypto.NewKey(nil)
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	if err := s.EscrowRootKey(slid, key); err != nil {
		t.Fatalf("EscrowRootKey: %v", err)
	}
	// A graceful restart gets the key back and keeps its leases.
	res, err := s.InitClient(slid, attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("restart init: %v", err)
	}
	if !res.HasOBK || s.Outstanding(slid, "lic") != g.Units {
		t.Fatalf("graceful restart: HasOBK %v, outstanding %d, want the key and %d units",
			res.HasOBK, s.Outstanding(slid, "lic"), g.Units)
	}
	// That incarnation crashes with nothing escrowed. Its next init is
	// where the crash is detected: the key was single-use, so none is
	// released (the replay defence of Section 5.7), and every unit held
	// is forfeit.
	res, err = s.InitClient(slid, attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("post-crash init: %v", err)
	}
	if res.HasOBK {
		t.Fatal("escrow released after a crash — replay window open")
	}
	lic, err := s.License("lic")
	if err != nil {
		t.Fatalf("License: %v", err)
	}
	if lic.Lost != g.Units {
		t.Fatalf("lost = %d, want %d", lic.Lost, g.Units)
	}
	if s.Outstanding(slid, "lic") != 0 {
		t.Fatal("outstanding not forfeited")
	}
	if got := s.Stats().CrashForfeits; got != 1 {
		t.Fatalf("crash forfeits = %d, want 1", got)
	}
}

func TestConsumeReport(t *testing.T) {
	s := newServer(t)
	if err := s.RegisterLicense("lic", lease.CountBased, 10_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	slid := initClient(t, s)
	g, err := s.RenewLease(slid, "lic")
	if err != nil {
		t.Fatalf("RenewLease: %v", err)
	}
	if err := s.ConsumeReport(slid, "lic", g.Units/2); err != nil {
		t.Fatalf("ConsumeReport: %v", err)
	}
	if got := s.Outstanding(slid, "lic"); got != g.Units-g.Units/2 {
		t.Fatalf("outstanding = %d", got)
	}
	// Over-reporting clamps at zero.
	if err := s.ConsumeReport(slid, "lic", 1<<40); err != nil {
		t.Fatalf("ConsumeReport: %v", err)
	}
	if got := s.Outstanding(slid, "lic"); got != 0 {
		t.Fatalf("outstanding = %d, want 0", got)
	}
	if err := s.ConsumeReport(slid, "lic", -1); err == nil {
		t.Fatal("negative consumption accepted")
	}
}

func TestGrantNeverExceedsPoolProperty(t *testing.T) {
	// Property: across arbitrary health/reliability profiles and client
	// counts, the sum of all grants never exceeds the license total.
	f := func(seed int64, profiles []struct {
		H, N, W float64
	}) bool {
		if len(profiles) == 0 {
			return true
		}
		if len(profiles) > 12 {
			profiles = profiles[:12]
		}
		s, err := NewServer(DefaultConfig(), nil)
		if err != nil {
			return false
		}
		const total = 5000
		if err := s.RegisterLicense("lic", lease.CountBased, total); err != nil {
			return false
		}
		var granted int64
		for _, p := range profiles {
			res, err := s.InitClient("", attest.Quote{}, nil)
			if err != nil {
				return false
			}
			if err := s.SetClientProfile(res.SLID, p.H, p.N, p.W); err != nil {
				return false
			}
			for r := 0; r < 3; r++ {
				g, err := s.RenewLease(res.SLID, "lic")
				if err != nil {
					break
				}
				granted += g.Units
			}
		}
		lic, err := s.License("lic")
		if err != nil {
			return false
		}
		return granted <= total && lic.Remaining >= 0 && lic.Remaining+granted == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSetClientProfileClamps(t *testing.T) {
	s := newServer(t)
	slid := initClient(t, s)
	if err := s.SetClientProfile(slid, 7, -2, -1); err != nil {
		t.Fatalf("SetClientProfile: %v", err)
	}
	if err := s.SetClientProfile("ghost", 1, 1, 1); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("profile for unknown client: %v", err)
	}
	// Clamped values must not break renewal.
	if err := s.RegisterLicense("lic", lease.CountBased, 100); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	if _, err := s.RenewLease(slid, "lic"); err != nil && !errors.Is(err, ErrLicenseExhausted) {
		t.Fatalf("RenewLease with clamped profile: %v", err)
	}
}

// TestAlgorithm1HandComputedMultiClient pins the renewal formula line by
// line for a three-client group with distinct α, h, and n values.
func TestAlgorithm1HandComputedMultiClient(t *testing.T) {
	s := newServer(t)
	const total = 12_000 // τ = 1200
	if err := s.RegisterLicense("lic", lease.CountBased, total); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}

	// Client A: weight 2, perfect health, perfect network.
	a := initClient(t, s)
	if err := s.SetClientProfile(a, 1.0, 1.0, 2.0); err != nil {
		t.Fatal(err)
	}
	// First renewal: A is the only holder/requester. C=1, α=1 (normalized),
	// G = 12000, g = G/D = 3000, h=1 → no penalty, n=1 → no benefit,
	// ExpLoss = 0 ≤ τ → β=(τ−0)/τ=1 → g=3000.
	ga, err := s.RenewLease(a, "lic")
	if err != nil {
		t.Fatalf("RenewLease a: %v", err)
	}
	if ga.Units != 3000 {
		t.Fatalf("grant A = %d, want 3000", ga.Units)
	}

	// Client B: weight 1, health 0.8 (below T_H), network 0.5 (no benefit
	// because unhealthy).
	b := initClient(t, s)
	if err := s.SetClientProfile(b, 0.8, 0.5, 1.0); err != nil {
		t.Fatal(err)
	}
	// Holders now {A(w2), B(w1)}: C=2, α_B = 1/3.
	// G_B = (1/3)·12000/2 = 2000; g = 2000/4 = 500; crash penalty ×0.8 =
	// 400; no network benefit (h ≤ T_H).
	// ExpLoss = A: 3000·(1−1)=0 + B: 400·(1−0.8)=80 ≤ τ=1200
	// → β=(1200−80)/1200=0.93333, g = 400·0.93333 = 373.33 → 373.
	gb, err := s.RenewLease(b, "lic")
	if err != nil {
		t.Fatalf("RenewLease b: %v", err)
	}
	if gb.Units != 373 {
		t.Fatalf("grant B = %d, want 373", gb.Units)
	}

	// Client C: weight 1, health 0.95 (> T_H), network 0.5 → benefit ×2.
	c := initClient(t, s)
	if err := s.SetClientProfile(c, 0.95, 0.5, 1.0); err != nil {
		t.Fatal(err)
	}
	// Holders {A(2), B(1), C(1)}: C=3, α_C = 1/4.
	// G_C = (1/4)·12000/3 = 1000; g = 1000/4 = 250; ×0.95 = 237.5;
	// benefit min(1000, 237.5·2) = 475.
	// ExpLoss = 0 (A) + 373·0.2=74.6 (B) + 475·0.05=23.75 (C) = 98.35 ≤ τ
	// → β = (1200−98.35)/1200 = 0.9180, g = 475·0.9180 = 436.06 → 436.
	gc, err := s.RenewLease(c, "lic")
	if err != nil {
		t.Fatalf("RenewLease c: %v", err)
	}
	if gc.Units != 436 {
		t.Fatalf("grant C = %d, want 436", gc.Units)
	}

	// Pool accounting is exact.
	lic, err := s.License("lic")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(total - 3000 - 373 - 436); lic.Remaining != want {
		t.Fatalf("remaining = %d, want %d", lic.Remaining, want)
	}
}

// TestAlgorithm1ScaleDownLoop forces the while-loop branch (lines 10-14):
// a fleet so unhealthy that the expected loss exceeds τ, requiring the
// β-driven scale-down to converge below the bound.
func TestAlgorithm1ScaleDownLoop(t *testing.T) {
	s := newServer(t)
	const total = 1000 // τ = 100
	if err := s.RegisterLicense("lic", lease.CountBased, total); err != nil {
		t.Fatal(err)
	}
	// Existing holder with huge exposure: health 0.1, gets some units.
	a := initClient(t, s)
	if err := s.SetClientProfile(a, 0.1, 1.0, 1.0); err != nil {
		t.Fatal(err)
	}
	ga, err := s.RenewLease(a, "lic")
	if err != nil {
		t.Fatal(err)
	}
	// Second equally unhealthy client: the combined expected loss would
	// breach τ without the scale-down loop.
	b := initClient(t, s)
	if err := s.SetClientProfile(b, 0.1, 1.0, 1.0); err != nil {
		t.Fatal(err)
	}
	gb, err := s.RenewLease(b, "lic")
	if err != nil && !errors.Is(err, ErrLicenseExhausted) {
		t.Fatalf("RenewLease b: %v", err)
	}
	loss := float64(ga.Units)*0.9 + float64(gb.Units)*0.9
	// The loop bounds the POST-renewal expected loss; allow the pre-grant
	// exposure of A plus a small epsilon.
	if loss > 100+float64(ga.Units)*0.9 {
		t.Fatalf("expected loss %.1f not bounded", loss)
	}
	if gb.Units >= ga.Units {
		t.Fatalf("second unhealthy grant %d not scaled below first %d", gb.Units, ga.Units)
	}
}
