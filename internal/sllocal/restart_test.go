package sllocal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/leasetree"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/slremote"
	"repro/internal/store"
)

// TestRestartInPlaceMatchesFreshService checks that Init after Shutdown or
// Crash is a process restart: the service restarted in place ends up where
// a new Service over a copy of the same untrusted state does — same SLID,
// license directory, tree contents and next lease ID, and the same
// SL-Remote ledger. Each side talks to its own SL-Remote, recovered from a
// copy of one state directory, so the single-use escrow is released once
// to each.
func TestRestartInPlaceMatchesFreshService(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Service) error
	}{
		{"shutdown", (*Service).Shutdown},
		{"crash", func(s *Service) error { s.Crash(); return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := sgx.NewMachine(sgx.MachineConfig{Name: "client", EPCBytes: 8 << 20})
			if err != nil {
				t.Fatal(err)
			}
			plat, err := attest.NewPlatform("client", m)
			if err != nil {
				t.Fatal(err)
			}
			sealKey, err := seccrypto.NewKey(nil)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			remote := persistedRemote(t, dir, sealKey)
			licenses := []string{"lic-a", "lic-b", "lic-c"}
			for _, id := range licenses {
				if err := remote.RegisterLicense(id, lease.CountBased, 1000); err != nil {
					t.Fatal(err)
				}
			}
			cfg := Config{TokenBatch: 4}
			svc, err := New(cfg, Deps{Machine: m, Platform: plat, Remote: remote})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Init(); err != nil {
				t.Fatal(err)
			}
			app, err := m.CreateEnclave("app", []byte("app"), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"lic-a", "lic-a", "lic-a", "lic-b", "lic-b"} {
				if _, err := svc.RequestToken(app, id); err != nil {
					t.Fatal(err)
				}
			}
			slid, stats := svc.SLID(), svc.Stats()
			if err := tc.stop(svc); err != nil {
				t.Fatal(err)
			}
			tree := svc.treeStats()
			if err := svc.Shutdown(); !errors.Is(err, ErrStopped) {
				t.Fatalf("Shutdown while down: %v, want ErrStopped", err)
			}
			if _, err := svc.RequestToken(app, "lic-a"); !errors.Is(err, ErrStopped) {
				t.Fatalf("RequestToken while down: %v, want ErrStopped", err)
			}

			// The other process: a new Service over a copy of the disk, and
			// SL-Remote as it stood at the stop.
			if err := remote.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			twin := persistedRemote(t, copyDir(t, dir), sealKey)
			fresh, err := New(cfg, Deps{Machine: m, Platform: plat, Remote: twin, State: copyState(svc.deps.State)})
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Init(); err != nil {
				t.Fatal(err)
			}
			if err := svc.Init(); err != nil {
				t.Fatalf("Init after %s: %v", tc.name, err)
			}

			if svc.SLID() != slid || fresh.SLID() != slid {
				t.Fatalf("SLID %q before, %q in place, %q fresh", slid, svc.SLID(), fresh.SLID())
			}
			if got := svc.Stats(); got != stats {
				t.Fatalf("stats across the restart: %+v, want %+v (Init counts nothing)", got, stats)
			}
			if got := svc.treeStats(); got.Commits < tree.Commits || got.Restores < tree.Restores || got.Evictions < tree.Evictions {
				t.Fatalf("tree counters fell across the restart: %+v → %+v", tree, got)
			}
			got, want := localContents(t, svc), localContents(t, fresh)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restarted in place: %+v\nfresh service:      %+v", got, want)
			}
			if n := len(got.dir); (tc.name == "shutdown") != (n == 2) {
				t.Fatalf("%s left %d directory entries", tc.name, n)
			}
			// A first sight after the restart allocates the same lease ID.
			tokA, err := svc.RequestToken(app, "lic-c")
			if err != nil {
				t.Fatal(err)
			}
			tokB, err := fresh.RequestToken(app, "lic-c")
			if err != nil {
				t.Fatal(err)
			}
			if tokA.LeaseID != tokB.LeaseID {
				t.Fatalf("lic-c lease ID %d in place, %d fresh", tokA.LeaseID, tokB.LeaseID)
			}
			for _, id := range licenses {
				a, err := remote.License(id)
				if err != nil {
					t.Fatal(err)
				}
				b, err := twin.License(id)
				if err != nil {
					t.Fatal(err)
				}
				if oa, ob := remote.Outstanding(slid, id), twin.Outstanding(slid, id); oa != ob || a.Lost != b.Lost {
					t.Fatalf("%s: outstanding %d, lost %d in place; %d, %d fresh", id, oa, a.Lost, ob, b.Lost)
				}
				if tc.name == "crash" && id == "lic-a" && a.Lost == 0 {
					t.Fatal("the crash forfeited nothing")
				}
			}
		})
	}
}

// contents is what a restart must rebuild: the license directory, every
// record it maps to, and the ID allocator's high-water mark.
type contents struct {
	dir     map[string]lease.ID
	records map[lease.ID]lease.Record
	treeLen int
	nextBlk uint32
}

func localContents(t *testing.T, s *Service) contents {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	c := contents{dir: s.dir, records: make(map[lease.ID]lease.Record), treeLen: s.tree.Len(), nextBlk: s.nextBlk}
	for _, id := range s.dir {
		rec, err := s.tree.Find(id)
		if err != nil {
			t.Fatalf("lease %d: %v", id, err)
		}
		c.records[id] = rec
	}
	return c
}

// persistedRemote recovers an SL-Remote from dir (empty: a new one) and
// keeps logging into it.
func persistedRemote(t *testing.T, dir string, sealKey seccrypto.Key) *slremote.Server {
	t.Helper()
	st, rec, err := store.Open(store.Options{Dir: dir, Mode: store.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	srv, err := slremote.RecoverServer(slremote.DefaultConfig(), nil, rec, slremote.PersistConfig{
		Log: st, Snap: st, SealKey: sealKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// copyState deep-copies the untrusted state, so the two services share no
// buffers.
func copyState(st *UntrustedState) *UntrustedState {
	cp := *st
	cp.DirectorySealed = append([]byte(nil), st.DirectorySealed...)
	if st.Snapshot != nil {
		snap := leasetree.Snapshot{
			RootCipher: append([]byte(nil), st.Snapshot.RootCipher...),
			Blobs:      make(map[uint64][]byte, len(st.Snapshot.Blobs)),
			NextRef:    st.Snapshot.NextRef,
		}
		for ref, blob := range st.Snapshot.Blobs {
			snap.Blobs[ref] = append([]byte(nil), blob...)
		}
		cp.Snapshot = &snap
	}
	return &cp
}
