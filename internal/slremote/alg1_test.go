package slremote

import (
	"errors"
	"math"
	"testing"

	"repro/internal/lease"
)

func assertErrIs(t *testing.T, err, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// TestAlg1RenewTable pins Algorithm 1's grant arithmetic through the public
// RenewLease path, one fresh server per case so holder sets don't leak.
// With DefaultConfig (D=4, T_H=0.9, β=0.01, τ=10%·TG) and a 1000-unit
// license the expected values are exact.
func TestAlg1RenewTable(t *testing.T) {
	cases := []struct {
		name                        string
		kind                        lease.Kind
		total                       int64
		health, reliability, weight float64
		wantUnits                   int64
	}{
		{
			// α=1, C=1: G=1000, g=G/D=250; full health takes the network
			// benefit at n=1 (no-op); zero expected loss leaves β=1.
			name: "single-holder-default", kind: lease.CountBased, total: 1000,
			health: 1, reliability: 1, weight: 1, wantUnits: 250,
		},
		{
			// h=0 zeroes the grant at line 5; the pool is live, so the
			// floor-bump hands out the minimum viable single unit.
			name: "zero-health-floor-bump", kind: lease.CountBased, total: 1000,
			health: 0, reliability: 1, weight: 1, wantUnits: 1,
		},
		{
			// n=0 is floored to 1e-3 by the profile clamp; the healthy
			// client's network benefit g/n then slams into the G ceiling.
			name: "zero-reliability-capped-at-gmax", kind: lease.CountBased, total: 1000,
			health: 1, reliability: 0, weight: 1, wantUnits: 1000,
		},
		{
			// h=0.5 halves g to 125 and forfeits the benefit (h ≤ T_H).
			// ExpLoss = 125·0.5 = 62.5 ≤ τ=100, so line 16 damps by
			// β=(100−62.5)/100: g = 0.375·125 = 46.875 → 46.
			name: "moderate-health-loss-damping", kind: lease.CountBased, total: 1000,
			health: 0.5, reliability: 1, weight: 1, wantUnits: 46,
		},
		{
			// A seat, not a budget: activation is always exactly one unit.
			name: "perpetual-single-seat", kind: lease.Perpetual, total: 5,
			health: 0.3, reliability: 0.4, weight: 9, wantUnits: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t)
			if err := s.RegisterLicense("lic", tc.kind, tc.total); err != nil {
				t.Fatalf("RegisterLicense: %v", err)
			}
			slid := initClient(t, s)
			if err := s.SetClientProfile(slid, tc.health, tc.reliability, tc.weight); err != nil {
				t.Fatalf("SetClientProfile: %v", err)
			}
			grant, err := s.RenewLease(slid, "lic")
			if err != nil {
				t.Fatalf("RenewLease: %v", err)
			}
			if grant.Units != tc.wantUnits {
				t.Errorf("granted %d units, want %d", grant.Units, tc.wantUnits)
			}
			if grant.GCL.Counter != tc.wantUnits || grant.GCL.Kind != tc.kind {
				t.Errorf("GCL = %+v, want counter %d kind %v", grant.GCL, tc.wantUnits, tc.kind)
			}
			if got := s.Outstanding(slid, "lic"); got != tc.wantUnits {
				t.Errorf("outstanding = %d, want %d", got, tc.wantUnits)
			}
		})
	}
}

// TestAlg1AlphaNormalization pins the weight normalization Σα=1 over a
// holder set larger than two: weights 1,2,1 concurrency 3 on a 1200-unit
// license give the requester α=1/4 and G = α·TG/C = 100, so the default
// scale-down grants exactly 25.
func TestAlg1AlphaNormalization(t *testing.T) {
	s := newServer(t)
	if err := s.RegisterLicense("lic", lease.CountBased, 1200); err != nil {
		t.Fatal(err)
	}
	a, b, c := initClient(t, s), initClient(t, s), initClient(t, s)
	if err := s.SetClientProfile(b, 1, 1, 2); err != nil {
		t.Fatal(err)
	}
	// Hand B and C outstanding balances directly: the concurrency set
	// counts any client with units out, and the formula under test reads
	// only that set, the weights, and TG. The holder index mirrors every
	// outstanding mutation, so it is maintained by hand here too.
	s.mu.Lock()
	s.clients[b].outstanding["lic"] = 100
	s.setHolderLocked("lic", s.clients[b])
	s.clients[c].outstanding["lic"] = 50
	s.setHolderLocked("lic", s.clients[c])
	units, st := s.alg1Locked(s.clients[a], s.licenses["lic"], nil)
	s.mu.Unlock()

	if units != 25 {
		t.Errorf("granted %d units, want 25", units)
	}
	if math.Abs(st.alpha-0.25) > 1e-12 {
		t.Errorf("alpha = %v, want 0.25 (weights 1,2,1)", st.alpha)
	}
	if math.Abs(st.gMax-100) > 1e-9 {
		t.Errorf("gMax = %v, want 100", st.gMax)
	}
}

// TestAlg1ExpectedLossScaleDown pins lines 10-14: a large unhealthy
// holder pushes Equation 1 far past τ, and the multiplicative β scale-down
// drives the requester's grant to zero before the loop's floor.
func TestAlg1ExpectedLossScaleDown(t *testing.T) {
	s := newServer(t)
	if err := s.RegisterLicense("lic", lease.CountBased, 1000); err != nil {
		t.Fatal(err)
	}
	a, b := initClient(t, s), initClient(t, s)
	if err := s.SetClientProfile(a, 0.5, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetClientProfile(b, 0.2, 1, 1); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.clients[b].outstanding["lic"] = 400
	s.setHolderLocked("lic", s.clients[b])
	units, st := s.alg1Locked(s.clients[a], s.licenses["lic"], nil)
	s.mu.Unlock()

	// B alone already expects 400·0.8 = 320 lost against τ=100: no grant
	// to A can be loss-bounded, so the policy yields zero (RenewLease's
	// floor-bump, not Algorithm 1, keeps the license usable).
	if units != 0 {
		t.Errorf("granted %d units under a blown loss bound, want 0", units)
	}
	if st.expLoss <= s.licenses["lic"].Tau {
		t.Errorf("expLoss = %v, want > tau %v", st.expLoss, s.licenses["lic"].Tau)
	}
}

// TestAlg1DenialTable pins the deny paths ahead of the grant math.
func TestAlg1DenialTable(t *testing.T) {
	t.Run("exhausted", func(t *testing.T) {
		s := newServer(t)
		if err := s.RegisterLicense("lic", lease.CountBased, 4); err != nil {
			t.Fatal(err)
		}
		slid := initClient(t, s)
		for {
			if _, err := s.RenewLease(slid, "lic"); err != nil {
				if lic, _ := s.License("lic"); lic.Remaining != 0 {
					t.Fatalf("denied with %d units remaining: %v", lic.Remaining, err)
				}
				assertErrIs(t, err, ErrLicenseExhausted)
				return
			}
		}
	})
	t.Run("revoked", func(t *testing.T) {
		s := newServer(t)
		if err := s.RegisterLicense("lic", lease.CountBased, 100); err != nil {
			t.Fatal(err)
		}
		if err := s.Revoke("lic"); err != nil {
			t.Fatal(err)
		}
		slid := initClient(t, s)
		_, err := s.RenewLease(slid, "lic")
		assertErrIs(t, err, ErrLicenseRevoked)
	})
	t.Run("unknown-license", func(t *testing.T) {
		s := newServer(t)
		slid := initClient(t, s)
		_, err := s.RenewLease(slid, "ghost")
		assertErrIs(t, err, ErrUnknownLicense)
	})
	t.Run("unknown-client", func(t *testing.T) {
		s := newServer(t)
		if err := s.RegisterLicense("lic", lease.CountBased, 100); err != nil {
			t.Fatal(err)
		}
		_, err := s.RenewLease("slid-404", "lic")
		assertErrIs(t, err, ErrUnknownClient)
	})
}
