package slremote

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/seccrypto"
	"repro/internal/store"
)

func testSealKey(t *testing.T) seccrypto.Key {
	t.Helper()
	key, err := seccrypto.KeyFromBytes(bytes.Repeat([]byte{0x5e}, seccrypto.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func openTestStore(t *testing.T, dir string) (*store.Store, *store.Recovered) {
	t.Helper()
	st, rec, err := store.Open(store.Options{Dir: dir, Mode: store.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	return st, rec
}

// persistedServer builds a persisted server, runs a workload against it,
// and closes the store — the write half of every replay test below.
func persistedServer(t *testing.T, dir string, snapshotEvery int, workload func(*Server)) State {
	t.Helper()
	st, rec := openTestStore(t, dir)
	if !rec.Empty() {
		t.Fatalf("fresh dir not empty: %+v", rec)
	}
	s, err := NewServer(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachPersistence(PersistConfig{
		Log: st, Snap: st, SealKey: testSealKey(t), SnapshotEvery: snapshotEvery,
	}); err != nil {
		t.Fatal(err)
	}
	workload(s)
	want := s.ExportState()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func recoverTestServer(t *testing.T, dir string) (*Server, *store.Store) {
	t.Helper()
	st, rec := openTestStore(t, dir)
	s, err := RecoverServer(DefaultConfig(), nil, rec, PersistConfig{
		Log: st, Snap: st, SealKey: testSealKey(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

// fullWorkload exercises every WAL opcode at least once.
func fullWorkload(t *testing.T) func(*Server) {
	t.Helper()
	return func(s *Server) {
		if err := s.RegisterLicense("count", lease.CountBased, 1000); err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterLicense("timed", lease.TimeBased, 30); err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterLicense("doomed", lease.CountBased, 10); err != nil {
			t.Fatal(err)
		}
		res, err := s.InitClient("", attest.Quote{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		a := res.SLID
		res, err = s.InitClient("", attest.Quote{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := res.SLID
		if err := s.SetClientProfile(a, 0.95, 0.8, 2); err != nil {
			t.Fatal(err)
		}
		if err := s.SetClientProfile(b, 0.7, 1, 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := s.RenewLease(a, "count"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.RenewLease(b, "count"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.RenewLease(a, "timed"); err != nil {
			t.Fatal(err)
		}
		if err := s.ConsumeReport(a, "count", 5); err != nil {
			t.Fatal(err)
		}
		key, err := seccrypto.NewKey(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EscrowRootKey(a, key); err != nil {
			t.Fatal(err)
		}
		// b re-inits with nothing escrowed: the crash forfeit.
		if _, err := s.InitClient(b, attest.Quote{}, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Revoke("doomed"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplayRebuildsIdenticalState(t *testing.T) {
	for _, tc := range []struct {
		name          string
		snapshotEvery int
	}{
		{"wal_only", 0},
		{"snapshot_every_3", 3}, // workload spans several compactions
		{"snapshot_every_100", 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			want := persistedServer(t, dir, tc.snapshotEvery, fullWorkload(t))
			s, st := recoverTestServer(t, dir)
			defer st.Close()
			if got := s.ExportState(); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered state differs\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

func TestRecoveredServerKeepsWorking(t *testing.T) {
	dir := t.TempDir()
	persistedServer(t, dir, 0, fullWorkload(t))

	// First recovery: mutate further, then close.
	s, st := recoverTestServer(t, dir)
	res, err := s.InitClient("slid-1", attest.Quote{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasOBK {
		t.Fatal("escrowed root key not released after recovery")
	}
	if _, err := s.RenewLease("slid-1", "count"); err != nil {
		t.Fatal(err)
	}
	want := s.ExportState()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Second recovery must see the post-recovery mutations too.
	s2, st2 := recoverTestServer(t, dir)
	defer st2.Close()
	if got := s2.ExportState(); !reflect.DeepEqual(got, want) {
		t.Errorf("second recovery differs\n got: %+v\nwant: %+v", got, want)
	}
}

func TestRecoverWithWrongSealKeyFails(t *testing.T) {
	dir := t.TempDir()
	persistedServer(t, dir, 1, fullWorkload(t)) // force a sealed snapshot
	st, rec := openTestStore(t, dir)
	defer st.Close()
	wrong, err := seccrypto.NewKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverServer(DefaultConfig(), nil, rec, PersistConfig{
		Log: st, Snap: st, SealKey: wrong,
	}); err == nil {
		t.Fatal("recovery with the wrong seal key succeeded")
	}
}

func TestNoPlaintextRootKeyOnDisk(t *testing.T) {
	dir := t.TempDir()
	key, err := seccrypto.NewKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	persistedServer(t, dir, 2, func(s *Server) {
		if err := s.RegisterLicense("count", lease.CountBased, 100); err != nil {
			t.Fatal(err)
		}
		res, err := s.InitClient("", attest.Quote{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EscrowRootKey(res.SLID, key); err != nil {
			t.Fatal(err)
		}
	})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, key.Bytes()) {
			t.Errorf("plaintext root-key bytes found in %s", e.Name())
		}
	}
}

func TestReplayRejectsInconsistentLog(t *testing.T) {
	cases := []struct{ name, record, wantErr string }{
		// A renew event for a client the log never initialized: the
		// snapshot and the log disagree, so recovery must fail loudly.
		{"unknown-client", `{"op":"renew","grants":[{"slid":"ghost","license":"l","units":3}]}`, "unknown client"},
		// A renew record without a grant list (the shape this repo wrote
		// before batches of one and N shared a record) must not replay as
		// a silent no-op.
		{"no-grants", `{"op":"renew","slid":"ghost","license":"l","units":3}`, "no grants"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, _ := openTestStore(t, dir)
			if err := st.Append([]byte(tc.record)); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, rec := openTestStore(t, dir)
			defer st2.Close()
			_, err := RecoverServer(DefaultConfig(), nil, rec, PersistConfig{
				Log: st2, Snap: st2, SealKey: testSealKey(t),
			})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want %q replay failure, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestLogFailureDoesNotMutateState(t *testing.T) {
	dir := t.TempDir()
	st, rec := openTestStore(t, dir)
	s, err := RecoverServer(DefaultConfig(), nil, rec, PersistConfig{
		Log: st, Snap: st, SealKey: testSealKey(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterLicense("count", lease.CountBased, 100); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The store is closed: the WAL append fails, and the write-ahead
	// discipline must leave memory untouched.
	if err := s.RegisterLicense("late", lease.CountBased, 100); err == nil {
		t.Fatal("register succeeded with a closed store")
	}
	if ids := s.LicenseIDs(); len(ids) != 1 || ids[0] != "count" {
		t.Fatalf("state mutated despite log failure: %v", ids)
	}
}

func TestAttachPersistenceValidates(t *testing.T) {
	s, err := NewServer(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachPersistence(PersistConfig{}); err == nil {
		t.Fatal("nil Logger accepted")
	}
	st, _ := openTestStore(t, t.TempDir())
	defer st.Close()
	if err := s.AttachPersistence(PersistConfig{Log: st}); err == nil {
		t.Fatal("zero seal key accepted")
	}
	if err := s.AttachPersistence(PersistConfig{Log: st, SealKey: testSealKey(t), SnapshotEvery: -1}); err == nil {
		t.Fatal("negative SnapshotEvery accepted")
	}
}
