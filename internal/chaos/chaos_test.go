package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/slremote"
	"repro/internal/store"
)

// openStore opens a WAL store on dir through the given chaos FS.
func openStore(t *testing.T, fsys *FS, dir string) (*store.Store, *store.Recovered) {
	t.Helper()
	s, rec, err := store.Open(store.Options{Dir: dir, Mode: store.SyncAlways, FS: fsys})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return s, rec
}

func TestTornWriteCrashStopsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFS(nil)
	s, _ := openStore(t, fsys, dir)

	for i := 0; i < 5; i++ {
		if err := s.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	fsys.Arm(FSFault{Kind: TornWrite})
	if err := s.Append([]byte("doomed")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append after torn-write arm: got %v, want ErrCrashed", err)
	}
	if !fsys.Crashed() {
		t.Fatal("FS not crashed after torn write")
	}
	// The rollback of the torn frame failed too (the disk is gone), so the
	// store wedges: every later append reports that instead of writing
	// after a partial frame.
	if err := s.Append([]byte("also-doomed")); err == nil || !strings.Contains(err.Error(), "rollback") {
		t.Fatalf("append on a wedged store = %v, want the failed-rollback error", err)
	}
	tr := fsys.Trace()
	if len(tr) != 1 || tr[0].Kind != TornWrite {
		t.Fatalf("trace = %v, want one torn-write", tr)
	}

	// Restart over the same disk: recovery must truncate the torn frame
	// and surface exactly the records that were acked.
	fsys.Revive()
	s2, rec := openStore(t, fsys, dir)
	defer s2.Close()
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("recovery saw no torn tail, but half a frame was written")
	}
	for i, r := range rec.Records {
		if want := fmt.Sprintf("record-%d", i); string(r) != want {
			t.Fatalf("record %d = %q, want %q", i, r, want)
		}
	}
}

func TestShortWriteRollsBackAndStoreContinues(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFS(nil)
	s, _ := openStore(t, fsys, dir)

	if err := s.Append([]byte("before")); err != nil {
		t.Fatalf("append: %v", err)
	}
	fsys.Arm(FSFault{Kind: ShortWrite})
	if err := s.Append([]byte("failed-append")); err == nil {
		t.Fatal("short write reported success")
	}
	// The partial frame must have been rolled back: the next append lands
	// on a record boundary and recovery sees a clean log.
	if err := s.Append([]byte("after")); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rec, err := store.RecoverFS(fsys, dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec.TruncatedBytes != 0 {
		t.Fatalf("torn tail of %d bytes survived the rollback", rec.TruncatedBytes)
	}
	var got [][]byte
	got = append(got, rec.Records...)
	want := [][]byte{[]byte("before"), []byte("after")}
	if len(got) != len(want) || !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1]) {
		t.Fatalf("recovered %q, want %q", got, want)
	}
}

func TestSyncFailRollsBackUnsyncedFrame(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFS(nil)
	s, _ := openStore(t, fsys, dir)
	defer s.Close()

	if err := s.Append([]byte("durable")); err != nil {
		t.Fatalf("append: %v", err)
	}
	fsys.Arm(FSFault{Kind: SyncFail})
	if err := s.Append([]byte("unsynced")); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("append with failing fsync: got %v, want ErrInjectedSync", err)
	}
	// The caller aborted its mutation, so the frame must not resurface.
	if err := s.Append([]byte("next")); err != nil {
		t.Fatalf("append after sync failure: %v", err)
	}
	rec, err := store.RecoverFS(fsys, dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rec.Records) != 2 ||
		string(rec.Records[0]) != "durable" || string(rec.Records[1]) != "next" {
		t.Fatalf("recovered %q, want [durable next]", rec.Records)
	}
}

// TestSnapshotDirSyncFailureDoesNotShadowWAL pins the retraction path: a
// snapshot whose dir-fsync fails after the rename published the new
// generation must take that file back, or recovery would prefer the stale
// snapshot and drop every append made after the failure.
func TestSnapshotDirSyncFailureDoesNotShadowWAL(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFS(nil)
	s, _ := openStore(t, fsys, dir)

	if err := s.Append([]byte("pre-snapshot")); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Snapshot syncs three times: the outgoing WAL, the temp image file,
	// and the directory after the rename. Skip the first two.
	fsys.Arm(FSFault{Kind: SyncFail, After: 2})
	if err := s.Snapshot([]byte("image")); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("snapshot with failing dir sync: got %v, want ErrInjectedSync", err)
	}
	if err := s.Append([]byte("post-failure")); err != nil {
		t.Fatalf("append after failed snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rec, err := store.RecoverFS(fsys, dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec.Snapshot != nil {
		t.Fatal("recovery loaded the retracted snapshot")
	}
	if len(rec.Records) != 2 || string(rec.Records[1]) != "post-failure" {
		t.Fatalf("recovered %q: the failed snapshot shadowed the WAL tail", rec.Records)
	}
}

func TestFSFaultAfterCountsMatchingOps(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFS(nil)
	s, _ := openStore(t, fsys, dir)
	defer s.Close()

	fsys.Arm(FSFault{Kind: ShortWrite, After: 2})
	for i := 0; i < 2; i++ {
		if err := s.Append([]byte("fine")); err != nil {
			t.Fatalf("append %d should pass (After not yet exhausted): %v", i, err)
		}
	}
	if err := s.Append([]byte("third")); err == nil {
		t.Fatal("third write should have faulted")
	}
}

// TestTornWriteOutranksDueShortWrite is a torn write armed on the append
// where an earlier ShortWrite's countdown runs out. The crash must fire:
// otherwise the torn write stays armed until a Revive disarms it, and a
// run that schedules a tear never tears.
func TestTornWriteOutranksDueShortWrite(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFS(nil)
	s, _ := openStore(t, fsys, dir)
	defer s.Close()

	fsys.Arm(FSFault{Kind: ShortWrite, After: 1})
	if err := s.Append([]byte("fine")); err != nil {
		t.Fatalf("append before the countdown ends: %v", err)
	}
	fsys.Arm(FSFault{Kind: TornWrite})
	if err := s.Append([]byte("doomed")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append with a short and a torn write due: got %v, want ErrCrashed", err)
	}
	if tr := fsys.Trace(); len(tr) != 1 || tr[0].Kind != TornWrite {
		t.Fatalf("trace = %v, want one torn-write", tr)
	}
}

// connPair builds a wrapped client→server byte path over real TCP.
func connPair(t *testing.T, d *NetDirector) (wrapped net.Conn, peer net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("accept: %v", r.err)
	}
	t.Cleanup(func() { raw.Close(); r.c.Close() })
	return WrapConn(raw, d), r.c
}

func TestConnCutWritesPrefixAndCloses(t *testing.T) {
	d := NewNetDirector()
	w, peer := connPair(t, d)
	d.Arm(ConnFault{Kind: Cut})

	msg := []byte("0123456789abcdef")
	n, err := w.Write(msg)
	if !errors.Is(err, ErrConnFault) {
		t.Fatalf("cut write: got %v, want ErrConnFault", err)
	}
	if n != len(msg)/2 {
		t.Fatalf("cut wrote %d bytes, want %d", n, len(msg)/2)
	}
	buf := make([]byte, len(msg))
	total := 0
	for {
		k, err := peer.Read(buf[total:])
		total += k
		if err != nil {
			break
		}
	}
	if total != len(msg)/2 || !bytes.Equal(buf[:total], msg[:len(msg)/2]) {
		t.Fatalf("peer saw %q, want the %d-byte prefix", buf[:total], len(msg)/2)
	}
}

func TestConnDropSwallowsAndDupDoubles(t *testing.T) {
	d := NewNetDirector()
	w, peer := connPair(t, d)

	d.Arm(ConnFault{Kind: Drop})
	if n, err := w.Write([]byte("ghost")); err != nil || n != 5 {
		t.Fatalf("dropped write: n=%d err=%v, want full fake success", n, err)
	}
	d.Arm(ConnFault{Kind: Dup})
	if _, err := w.Write([]byte("echo")); err != nil {
		t.Fatalf("dup write: %v", err)
	}
	w.Close()
	var got bytes.Buffer
	buf := make([]byte, 64)
	for {
		k, err := peer.Read(buf)
		got.Write(buf[:k])
		if err != nil {
			break
		}
	}
	if got.String() != "echoecho" {
		t.Fatalf("peer saw %q, want %q (drop swallowed, dup doubled)", got.String(), "echoecho")
	}
	tr := d.Trace()
	if len(tr) != 2 || tr[0].Kind != Drop || tr[1].Kind != Dup {
		t.Fatalf("trace = %v, want [drop dup]", tr)
	}
}

// TestConnReorderSwapsOrFlushesOnItsOwn pins both ways a held write gets
// out: behind the connection's next write, and — when no next write ever
// comes, as when a whole wave of replies shares the held write — on the
// hold's own timer, so a reorder can never turn into a stall.
func TestConnReorderSwapsOrFlushesOnItsOwn(t *testing.T) {
	d := NewNetDirector()
	w, peer := connPair(t, d)
	read := func(n int) string {
		t.Helper()
		buf := make([]byte, n)
		if err := peer.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(peer, buf); err != nil {
			t.Fatalf("peer read: %v", err)
		}
		return string(buf)
	}

	d.Arm(ConnFault{Kind: Reorder})
	for _, msg := range []string{"first", "second"} {
		if n, err := w.Write([]byte(msg)); err != nil || n != len(msg) {
			t.Fatalf("write %q: n=%d err=%v", msg, n, err)
		}
	}
	if got := read(len("secondfirst")); got != "secondfirst" {
		t.Fatalf("peer saw %q, want the held write behind the next one", got)
	}

	d.Arm(ConnFault{Kind: Reorder})
	if _, err := w.Write([]byte("alone")); err != nil {
		t.Fatalf("held write: %v", err)
	}
	if got := read(len("alone")); got != "alone" {
		t.Fatalf("peer saw %q, want the held write flushed by its timer", got)
	}
}

// reactConn is the worst-case peer of a severing fault: every Write makes
// a follow-up request readable at once, and Close never lands.
type reactConn struct {
	net.Conn
	in chan []byte
}

func (c reactConn) Write(p []byte) (int, error) {
	c.in <- []byte("next-request")
	return len(p), nil
}

func (c reactConn) Read(p []byte) (int, error) { return copy(p, <-c.in), nil }
func (c reactConn) Close() error               { return nil }

// TestConnSeveringFaultStopsReadsFirst pins what keeps a swarm's fault
// trace reproducible: a peer that has a whole reply in hand after Dup's
// first copy may answer it before the connection is closed, and that
// request must never be delivered to the severed side.
func TestConnSeveringFaultStopsReadsFirst(t *testing.T) {
	d := NewNetDirector()
	w := WrapConn(reactConn{in: make(chan []byte, 4)}, d)
	d.Arm(ConnFault{Kind: Dup})
	if _, err := w.Write([]byte("reply")); err != nil {
		t.Fatalf("dup write: %v", err)
	}
	buf := make([]byte, 32)
	if n, err := w.Read(buf); err == nil {
		t.Fatalf("severed connection delivered %q", buf[:n])
	}
}

func TestConnCorruptFlipsByteAndSevers(t *testing.T) {
	d := NewNetDirector()
	w, peer := connPair(t, d)
	d.Arm(ConnFault{Kind: Corrupt})

	msg := []byte("0123456789abcdef")
	if n, err := w.Write(msg); err != nil || n != len(msg) {
		t.Fatalf("corrupt write: n=%d err=%v, want full fake success", n, err)
	}
	buf := make([]byte, len(msg)+8)
	total := 0
	for {
		k, err := peer.Read(buf[total:])
		total += k
		if err != nil {
			break
		}
	}
	if total != len(msg) {
		t.Fatalf("peer saw %d bytes, want %d", total, len(msg))
	}
	if bytes.Equal(buf[:total], msg) {
		t.Fatal("corrupt fault delivered the bytes unmodified")
	}
	diff := 0
	for i := range msg {
		if buf[i] != msg[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt fault changed %d bytes, want exactly 1", diff)
	}
	// The connection is severed after the corrupted write, as with Dup:
	// a desynced-but-open stream would break write-counter determinism.
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("connection still open after corrupt fault")
	}
	tr := d.Trace()
	if len(tr) != 1 || tr[0].Kind != Corrupt {
		t.Fatalf("trace = %v, want [corrupt]", tr)
	}
}

func TestScheduleDeterministicAndStructured(t *testing.T) {
	a := NewSchedule(42, 4, 220)
	b := NewSchedule(42, 4, 220)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if c := NewSchedule(43, 4, 220); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	var torn, cut, crash, quiesce int
	for i, st := range a.Steps {
		for _, f := range st.FSFaults {
			if f.Kind == TornWrite {
				torn++
				if a.Steps[i+1].Op != OpServerRestart {
					t.Fatalf("step %d tears the WAL but step %d is %s, not a server restart", i, i+1, a.Steps[i+1].Op)
				}
			}
		}
		for _, f := range st.NetFaults {
			if f.Kind == Cut {
				cut++
			}
		}
		if st.Op == OpClientCrash {
			crash++
		}
		if st.Op == OpQuiesce {
			quiesce++
		}
		if (st.Op == OpClientCrash || st.Op == OpClientRestart) && st.Client == 0 {
			t.Fatalf("step %d %s targets the anchor client", i, st.Op)
		}
	}
	if torn == 0 || cut == 0 || crash == 0 {
		t.Fatalf("required faults missing: torn=%d cut=%d crash=%d", torn, cut, crash)
	}
	if quiesce < 220/quiesceEvery {
		t.Fatalf("only %d quiesce points", quiesce)
	}
}

func TestCheckConservation(t *testing.T) {
	ok := slremote.State{
		Licenses: map[string]slremote.License{
			"lic": {ID: "lic", TotalGCL: 100, Remaining: 60, Consumed: 15, Lost: 5},
		},
		Clients: map[string]slremote.ClientState{
			"slid-1": {SLID: "slid-1", Outstanding: map[string]int64{"lic": 12}},
			"slid-2": {SLID: "slid-2", Outstanding: map[string]int64{"lic": 8}},
		},
	}
	if err := CheckConservation(ok); err != nil {
		t.Fatalf("balanced state rejected: %v", err)
	}
	bad := ok
	bad.Licenses = map[string]slremote.License{
		"lic": {ID: "lic", TotalGCL: 100, Remaining: 61, Consumed: 15, Lost: 5},
	}
	if err := CheckConservation(bad); err == nil {
		t.Fatal("unit leak passed the conservation check")
	}
}

func TestCheckConservationAllTwoServerSplit(t *testing.T) {
	// A healthy two-shard split: each license lives on exactly one server
	// and its units add up to the declared budget.
	shardA := slremote.State{
		Licenses: map[string]slremote.License{
			"lic-a": {ID: "lic-a", TotalGCL: 100, Remaining: 70, Consumed: 10},
		},
		Clients: map[string]slremote.ClientState{
			"slid-1": {SLID: "slid-1", Outstanding: map[string]int64{"lic-a": 20}},
		},
	}
	shardB := slremote.State{
		Licenses: map[string]slremote.License{
			"lic-b": {ID: "lic-b", TotalGCL: 50, Remaining: 30, Lost: 5},
		},
		Clients: map[string]slremote.ClientState{
			"slid-2": {SLID: "slid-2", Outstanding: map[string]int64{"lic-b": 15}},
		},
	}
	declared := map[string]int64{"lic-a": 100, "lic-b": 50}
	if err := CheckConservationAll(declared, shardA, shardB); err != nil {
		t.Fatalf("balanced split rejected: %v", err)
	}
	// Per-shard and cluster-wide checks share the checker: one shard alone
	// passes against its own slice of the declarations.
	if err := CheckConservationAll(map[string]int64{"lic-a": 100}, shardA); err != nil {
		t.Fatalf("single-shard call rejected: %v", err)
	}

	// Double ownership after a botched failover: the same license served
	// by both shards doubles every unit.
	both := shardB
	both.Licenses = map[string]slremote.License{
		"lic-b": both.Licenses["lic-b"],
		"lic-a": {ID: "lic-a", TotalGCL: 100, Remaining: 100},
	}
	if err := CheckConservationAll(declared, shardA, both); err == nil {
		t.Fatal("double-owned license passed the cluster-wide check")
	}

	// A shard that lost its license wholesale: declared units destroyed.
	if err := CheckConservationAll(declared, shardA); err == nil {
		t.Fatal("missing license passed the cluster-wide check")
	}

	// A diverged budget: the server is internally balanced around a
	// smaller TotalGCL than was declared — only the cluster-wide sum
	// catches it.
	short := shardB
	short.Licenses = map[string]slremote.License{
		"lic-b": {ID: "lic-b", TotalGCL: 40, Remaining: 20, Lost: 5},
	}
	if err := CheckConservationAll(declared, shardA, short); err == nil {
		t.Fatal("shrunken budget passed the cluster-wide check")
	}

	// A license no one declared: units created from nothing.
	if err := CheckConservationAll(map[string]int64{"lic-a": 100}, shardA, shardB); err == nil {
		t.Fatal("undeclared license passed the cluster-wide check")
	}

	// A server whose own ledger is broken fails before any cluster math.
	broken := slremote.State{
		Licenses: map[string]slremote.License{
			"lic-a": {ID: "lic-a", TotalGCL: 100, Remaining: 99},
		},
	}
	if err := CheckConservationAll(map[string]int64{"lic-a": 100}, broken); err == nil {
		t.Fatal("imbalanced server passed the per-server check")
	}
}
