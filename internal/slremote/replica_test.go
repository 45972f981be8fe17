package slremote

import (
	"reflect"
	"testing"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/seccrypto"
	"repro/internal/store"
)

// tailAll pulls the leader's WAL position forward through the replica
// until it is caught up, returning the records applied.
func tailAll(t *testing.T, st *store.Store, r *Replica, gen *uint64, off *int64) int {
	t.Helper()
	total := 0
	for {
		b, err := st.TailSince(*gen, *off, 0)
		if err != nil {
			t.Fatalf("TailSince: %v", err)
		}
		n, err := r.ApplyBatch(b)
		if err != nil {
			t.Fatalf("ApplyBatch: %v", err)
		}
		total += n
		*gen, *off = b.Gen, b.NextOffset
		if b.Caught() {
			return total
		}
	}
}

func TestReplicaFollowsLeaderWAL(t *testing.T) {
	key := testSealKey(t)
	st, rec, err := store.Open(store.Options{Dir: t.TempDir(), Mode: store.SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	leader, err := RecoverServer(DefaultConfig(), nil, rec, PersistConfig{Log: st, Snap: st, SealKey: key})
	if err != nil {
		t.Fatalf("RecoverServer: %v", err)
	}
	replica, err := NewReplica(DefaultConfig(), nil, key)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}

	if err := leader.RegisterLicense("lic", lease.CountBased, 1000); err != nil {
		t.Fatal(err)
	}
	init, err := leader.InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("InitClient: %v", err)
	}
	if _, err := leader.RenewLease(init.SLID, "lic"); err != nil {
		t.Fatalf("RenewLease: %v", err)
	}

	var gen uint64
	var off int64
	tailAll(t, st, replica, &gen, &off)
	if got, want := replica.State(), leader.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica state diverged:\n got %+v\nwant %+v", got, want)
	}

	// More leader traffic, including an escrow (a sealed record): the
	// incremental follow must land it identically.
	rootKey, err := seccrypto.KeyFromBytes([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatalf("root key: %v", err)
	}
	if err := leader.EscrowRootKey(init.SLID, rootKey); err != nil {
		t.Fatalf("EscrowRootKey: %v", err)
	}
	if err := leader.ConsumeReport(init.SLID, "lic", 10); err != nil {
		t.Fatalf("ConsumeReport: %v", err)
	}
	tailAll(t, st, replica, &gen, &off)
	if got, want := replica.State(), leader.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica state diverged after follow:\n got %+v\nwant %+v", got, want)
	}
	if replica.Applied() == 0 {
		t.Fatalf("Applied() = 0 after folding records")
	}
}

func TestReplicaRebasesAcrossSnapshot(t *testing.T) {
	key := testSealKey(t)
	st, rec, err := store.Open(store.Options{Dir: t.TempDir(), Mode: store.SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	leader, err := RecoverServer(DefaultConfig(), nil, rec, PersistConfig{Log: st, Snap: st, SealKey: key})
	if err != nil {
		t.Fatalf("RecoverServer: %v", err)
	}
	if err := leader.RegisterLicense("lic", lease.CountBased, 500); err != nil {
		t.Fatal(err)
	}
	init, err := leader.InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("InitClient: %v", err)
	}
	if err := leader.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	if _, err := leader.RenewLease(init.SLID, "lic"); err != nil {
		t.Fatalf("RenewLease: %v", err)
	}

	// A replica starting from scratch sees a leader already past a
	// compaction: its first pull must rebase onto the sealed snapshot.
	replica, err := NewReplica(DefaultConfig(), nil, key)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	var gen uint64
	var off int64
	tailAll(t, st, replica, &gen, &off)
	if gen != 1 {
		t.Fatalf("follow position at generation %d, want 1", gen)
	}
	if got, want := replica.State(), leader.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica state diverged across rebase:\n got %+v\nwant %+v", got, want)
	}
}

func TestReplicaPromoteServesAndPersists(t *testing.T) {
	key := testSealKey(t)
	leaderStore, rec, err := store.Open(store.Options{Dir: t.TempDir(), Mode: store.SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer leaderStore.Close()
	leader, err := RecoverServer(DefaultConfig(), nil, rec, PersistConfig{Log: leaderStore, Snap: leaderStore, SealKey: key})
	if err != nil {
		t.Fatalf("RecoverServer: %v", err)
	}
	if err := leader.RegisterLicense("lic", lease.CountBased, 1000); err != nil {
		t.Fatal(err)
	}
	init, err := leader.InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("InitClient: %v", err)
	}
	if _, err := leader.RenewLease(init.SLID, "lic"); err != nil {
		t.Fatalf("RenewLease: %v", err)
	}

	replica, err := NewReplica(DefaultConfig(), nil, key)
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	var gen uint64
	var off int64
	tailAll(t, leaderStore, replica, &gen, &off)
	want := leader.ExportState()

	// Promote onto the follower's own fresh store; the inherited state is
	// snapshotted immediately, so a crash right after promotion recovers
	// the full inherited state.
	followerDir := t.TempDir()
	followerStore, frec, err := store.Open(store.Options{Dir: followerDir, Mode: store.SyncAlways})
	if err != nil {
		t.Fatalf("Open follower store: %v", err)
	}
	if !frec.Empty() {
		t.Fatalf("fresh follower dir recovered state")
	}
	promoted, err := replica.Promote(PersistConfig{Log: followerStore, Snap: followerStore, SealKey: key})
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if got := promoted.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("promoted state diverged:\n got %+v\nwant %+v", got, want)
	}

	// The promoted server serves and logs: a renewal lands in its store.
	if _, err := promoted.RenewLease(init.SLID, "lic"); err != nil {
		t.Fatalf("RenewLease on promoted server: %v", err)
	}
	wantAfter := promoted.ExportState()
	if err := followerStore.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2, rec2, err := store.Open(store.Options{Dir: followerDir, Mode: store.SyncAlways})
	if err != nil {
		t.Fatalf("reopen follower store: %v", err)
	}
	defer st2.Close()
	recovered, err := RecoverServer(DefaultConfig(), nil, rec2, PersistConfig{Log: st2, Snap: st2, SealKey: key})
	if err != nil {
		t.Fatalf("RecoverServer from follower store: %v", err)
	}
	if got := recovered.ExportState(); !reflect.DeepEqual(got, wantAfter) {
		t.Fatalf("recovery of promoted store diverged:\n got %+v\nwant %+v", got, wantAfter)
	}

	// The replica is sealed off after promotion.
	if _, err := replica.ApplyBatch(store.TailBatch{Records: [][]byte{[]byte(`{"op":"crash","slid":"x"}`)}}); err == nil {
		t.Fatalf("Apply after Promote succeeded")
	}
}
