package chaos

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/slremote"
)

// delivered counts how many of n requests the link lets through.
func delivered(l *Link, n int) int {
	got := 0
	for i := 0; i < n; i++ {
		if l.send() == nil {
			got++
		}
	}
	return got
}

func TestLinkDeliveryFollowsReliability(t *testing.T) {
	for _, tc := range []struct {
		name        string
		reliability float64
		lo, hi      int // delivered out of 20 000
	}{
		{"perfect", 1, 20_000, 20_000},
		{"dead", 0, 0, 0},
		{"lossy", 0.7, 13_600, 14_400}, // 0.7 ± 0.02
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := delivered(NewLink(tc.reliability, 42), 20_000); got < tc.lo || got > tc.hi {
				t.Fatalf("delivered %d of 20000, want [%d, %d]", got, tc.lo, tc.hi)
			}
		})
	}
}

func TestLinkDeterministicWithSameSeed(t *testing.T) {
	draws := func(r float64, seed int64) []bool {
		l := NewLink(r, seed)
		out := make([]bool, 200)
		for i := range out {
			out[i] = l.send() == nil
		}
		return out
	}
	a, b := draws(0.5, 99), draws(0.5, 99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
}

func TestLinkReliabilityMonotone(t *testing.T) {
	// Property: with the same seed, a more reliable link delivers at least
	// as many requests.
	f := func(seed int64, r1, r2 float64) bool {
		lo, hi := math.Abs(math.Mod(r1, 1)), math.Abs(math.Mod(r2, 1))
		if lo > hi {
			lo, hi = hi, lo
		}
		return delivered(NewLink(lo, seed), 500) <= delivered(NewLink(hi, seed), 500)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkDownAndHeal(t *testing.T) {
	l := NewLink(1, 3)
	l.SetDown(true)
	if err := l.send(); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("down link: got %v", err)
	}
	l.SetDown(false)
	if err := l.send(); err != nil {
		t.Fatalf("healed link: %v", err)
	}
}

// TestRemoteDrawsBeforeDelegating: a request the link loses never reaches
// the server and costs the caller's machine two drop penalties per attempt
// (a partition fails at once and costs nothing); a delivered request gets
// the server's own answer and costs nothing.
func TestRemoteDrawsBeforeDelegating(t *testing.T) {
	machine, err := sgx.NewMachine(sgx.MachineConfig{Name: "client", EPCBytes: 1 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	server, err := slremote.NewServer(slremote.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := server.RegisterLicense("lic", lease.CountBased, 100); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}
	key, err := seccrypto.NewKey(nil)
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	calls := map[string]func(*Remote) error{
		"init": func(r *Remote) error {
			_, err := r.InitClient("", attest.Quote{}, nil)
			return err
		},
		"renew": func(r *Remote) error {
			_, err := r.RenewLease("slid-1", "lic")
			return err
		},
		"escrow": func(r *Remote) error { return r.EscrowRootKey("slid-1", key) },
	}
	down := NewLink(1, 1)
	down.SetDown(true)
	for _, l := range []struct {
		name    string
		link    *Link
		want    error
		charged int64
	}{
		{"down", down, ErrLinkDown, 0},
		{"dead", NewLink(0, 1), ErrDropped, machine.Model().DurationToCycles(2 * sendAttempts * dropPenalty)},
	} {
		for name, call := range calls {
			before := machine.Clock().Now()
			if err := call(l.link.Wrap(server, machine)); !errors.Is(err, l.want) {
				t.Errorf("%s link, %s: got %v, want %v", l.name, name, err, l.want)
			}
			if got := machine.Clock().Now() - before; got != l.charged {
				t.Errorf("%s link, %s: charged %d cycles, want %d", l.name, name, got, l.charged)
			}
		}
	}
	if st := server.Stats(); st.RemoteAttestations != 0 {
		t.Fatalf("a lost init reached the server: %+v", st)
	}

	before := machine.Clock().Now()
	remote := NewLink(1, 1).Wrap(server, machine)
	res, err := remote.InitClient("", attest.Quote{}, nil)
	if err != nil || res.SLID != "slid-1" {
		t.Fatalf("delivered init: %+v, %v", res, err)
	}
	if g, err := remote.RenewLease(res.SLID, "lic"); err != nil || g.Units == 0 {
		t.Fatalf("delivered renew: %+v, %v", g, err)
	}
	if err := remote.EscrowRootKey(res.SLID, key); err != nil {
		t.Fatalf("delivered escrow: %v", err)
	}
	if got := machine.Clock().Now() - before; got != 0 {
		t.Fatalf("a perfect link charged %d cycles", got)
	}
}
