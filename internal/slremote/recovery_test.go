package slremote

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/seccrypto"
	"repro/internal/store"
)

// recoverDir reopens dir and recovers a server from it, closing the store
// when the test ends.
func recoverDir(t *testing.T, dir string, key seccrypto.Key) *Server {
	t.Helper()
	st, rec, err := store.Open(store.Options{Dir: dir, Mode: store.SyncAlways})
	if err != nil {
		t.Fatalf("Open %s: %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	s, err := RecoverServer(DefaultConfig(), nil, rec, PersistConfig{Log: st, Snap: st, SealKey: key})
	if err != nil {
		t.Fatalf("RecoverServer %s: %v", dir, err)
	}
	return s
}

// TestRecoveryEqualsReplication pins the claim the durability layer rests
// on: recovering a state directory, tailing the same directory as a
// follower, and recovering a promoted follower's own store all reach one
// state, because all three are the same fold.
func TestRecoveryEqualsReplication(t *testing.T) {
	key := testSealKey(t)
	dir := t.TempDir()
	st, rec, err := store.Open(store.Options{Dir: dir, Mode: store.SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	leader, err := RecoverServer(DefaultConfig(), nil, rec, PersistConfig{Log: st, Snap: st, SealKey: key})
	if err != nil {
		t.Fatalf("RecoverServer: %v", err)
	}
	if err := leader.RegisterLicense("lic", lease.CountBased, 1_000_000); err != nil {
		t.Fatal(err)
	}
	var slids []string
	for i := 0; i < 2; i++ {
		res, err := leader.InitClient("", attest.Quote{}, nil)
		if err != nil {
			t.Fatalf("InitClient: %v", err)
		}
		slids = append(slids, res.SLID)
	}
	// Concurrent renewals coalesce into multi-grant renew records.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(slid string) {
			defer wg.Done()
			if _, err := leader.RenewLease(slid, "lic"); err != nil {
				errs <- err
			}
		}(slids[i%2])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("RenewLease: %v", err)
	}
	rootKey, err := seccrypto.KeyFromBytes([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.EscrowRootKey(slids[0], rootKey); err != nil {
		t.Fatalf("EscrowRootKey: %v", err)
	}
	if err := leader.ConsumeReport(slids[0], "lic", 3); err != nil {
		t.Fatalf("ConsumeReport: %v", err)
	}
	if err := leader.ReportCrash(slids[1]); err != nil {
		t.Fatalf("ReportCrash: %v", err)
	}
	if err := leader.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	if _, err := leader.RenewLease(slids[0], "lic"); err != nil {
		t.Fatalf("RenewLease after snapshot: %v", err)
	}
	want := leader.ExportState()

	replica, err := NewReplica(DefaultConfig(), nil, key)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	var gen uint64
	var off int64
	tailAll(t, st, replica, &gen, &off)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := replica.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica diverged from leader:\n got %+v\nwant %+v", got, want)
	}
	if got := recoverDir(t, dir, key).ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery diverged from leader:\n got %+v\nwant %+v", got, want)
	}

	promotedDir := t.TempDir()
	pst, _, err := store.Open(store.Options{Dir: promotedDir, Mode: store.SyncAlways})
	if err != nil {
		t.Fatalf("Open promoted store: %v", err)
	}
	if _, err := replica.Promote(PersistConfig{Log: pst, Snap: pst, SealKey: key}); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if err := pst.Close(); err != nil {
		t.Fatalf("Close promoted store: %v", err)
	}
	if got := recoverDir(t, promotedDir, key).ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery of the promoted store diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestStateImageRoundTrip seals a state with every field of every image
// type set, recovers it, and compares: a field added to License,
// ClientState or ServerStats that the snapshot does not carry fails here.
func TestStateImageRoundTrip(t *testing.T) {
	escrow, err := seccrypto.KeyFromBytes([]byte("fedcba9876543210"))
	if err != nil {
		t.Fatal(err)
	}
	want := State{
		Licenses: map[string]License{
			"timed": {ID: "timed", Kind: lease.TimeBased, TotalGCL: 30, Interval: time.Hour,
				Remaining: 10, Tau: 1.5, Revoked: true, Lost: 4, Consumed: 6},
		},
		Clients: map[string]ClientState{
			"slid-1": {SLID: "slid-1", Health: 0.9, Reliability: 0.8, Weight: 2,
				Escrow: escrow.Bytes(), HasEscrow: true, Outstanding: map[string]int64{"timed": 10}},
			"slid-2": {SLID: "slid-2", Health: 0.5, Reliability: 0.25, Weight: 1,
				Outstanding: map[string]int64{}, Crashed: true},
		},
		NextSLID: 3,
		Stats:    ServerStats{RemoteAttestations: 2, Renewals: 7, RenewalsDenied: 1, CrashForfeits: 1},
	}
	requireEveryField(t, want)
	requireEveryField(t, want.Stats)
	requireEveryField(t, want.Licenses["timed"])
	requireEveryField(t, want.Clients["slid-1"], want.Clients["slid-2"])

	key := testSealKey(t)
	dir := t.TempDir()
	st, _, err := store.Open(store.Options{Dir: dir, Mode: store.SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s, err := NewServer(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachPersistence(PersistConfig{Log: st, Snap: st, SealKey: key}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	err = s.restoreLocked(want)
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("restoreLocked: %v", err)
	}
	if got := s.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("export is not the inverse of restore:\n got %+v\nwant %+v", got, want)
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := recoverDir(t, dir, key).ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot round trip lost state:\n got %+v\nwant %+v", got, want)
	}
}

// TestOldSnapshotFormatRejected seals a snapshot in the earlier image
// format (snake_case keys, no license IDs) under the right seal key. It
// unseals, and a lenient decode would drop total_gcl, next_slid and
// has_escrow without a word; both entries to the fold must refuse it.
func TestOldSnapshotFormatRejected(t *testing.T) {
	key := testSealKey(t)
	old := []byte(`{"licenses":{"lic":{"kind":0,"total_gcl":100,"interval_ns":0,` +
		`"remaining":90,"tau":0,"revoked":false,"lost":0}},` +
		`"clients":{"slid-1":{"health":1,"reliability":1,"weight":1,` +
		`"escrow":"MDEyMzQ1Njc4OWFiY2RlZg==","has_escrow":true,"outstanding":{"lic":10},"crashed":false}},` +
		`"next_slid":1,"stats":{"RemoteAttestations":1,"Renewals":1,"RenewalsDenied":0,"CrashForfeits":0}}`)
	sealed, err := seccrypto.ProtectWithKey(old, key, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, _, err := store.Open(store.Options{Dir: dir, Mode: store.SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := st.Snapshot(sealed); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, rec, err := store.Open(store.Options{Dir: dir, Mode: store.SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	_, err = RecoverServer(DefaultConfig(), nil, rec, PersistConfig{Log: st, Snap: st, SealKey: key})
	if err == nil || !strings.Contains(err.Error(), "decoding snapshot") {
		t.Fatalf("RecoverServer over an old-format snapshot: err = %v, want a decode failure", err)
	}

	r, err := NewReplica(DefaultConfig(), nil, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ApplyBatch(store.TailBatch{Rebase: true, Gen: rec.Generation, Snapshot: rec.Snapshot}); err == nil ||
		!strings.Contains(err.Error(), "decoding snapshot") {
		t.Fatalf("ApplyBatch over an old-format snapshot: err = %v, want a decode failure", err)
	}
}

// requireEveryField fails unless each field of the values' struct type is
// non-zero in at least one of them.
func requireEveryField(t *testing.T, values ...any) {
	t.Helper()
	typ := reflect.TypeOf(values[0])
	for i := 0; i < typ.NumField(); i++ {
		set := false
		for _, v := range values {
			set = set || !reflect.ValueOf(v).Field(i).IsZero()
		}
		if !set {
			t.Errorf("%s.%s is zero in every test value; set it so the round trip covers it", typ.Name(), typ.Field(i).Name)
		}
	}
}
