package audit

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/seccrypto"
	"repro/internal/store"
)

func testKey(t testing.TB) seccrypto.Key {
	t.Helper()
	key, err := seccrypto.KeyFromBytes(bytes.Repeat([]byte{0xA7}, seccrypto.KeySize))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// walFile returns the one WAL file inside an audit log's store directory,
// for tests that tamper with the bytes on disk.
func walFile(t testing.TB, dir string) string {
	t.Helper()
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("WAL files under %s = %v, %v; want exactly one", dir, wals, err)
	}
	return wals[0]
}

// appendLifecycle writes the issue → renew → crash-forfeit arc the
// acceptance criteria name.
func appendLifecycle(t testing.TB, l *Log) {
	t.Helper()
	recs := []Record{
		{Op: OpIssue, License: "lic", Units: 1000},
		{Op: OpInit, SLID: "SL-1"},
		{Op: OpRenew, SLID: "SL-1", License: "lic", Units: 250,
			Alg1: &Alg1{Alpha: 1, ScaleDown: 4, Health: 1, Reliability: 1, ExpectedLoss: 250}},
		{Op: OpCrashForfeit, SLID: "SL-1", License: "lic", Units: 250},
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append(%s): %v", rec.Op, err)
		}
	}
}

func TestAuditChainAppendAndVerify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path, testKey(t))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendLifecycle(t, l)
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify on intact chain: %v", err)
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	tail := l.Tail(2)
	if len(tail) != 2 || tail[0].Op != OpRenew || tail[1].Op != OpCrashForfeit {
		t.Fatalf("Tail(2) = %+v", tail)
	}
	if tail[0].Alg1 == nil || tail[0].Alg1.Alpha != 1 || tail[0].Alg1.ScaleDown != 4 {
		t.Fatalf("renew record lost its Algorithm-1 inputs: %+v", tail[0].Alg1)
	}
	head := l.HeadHash()
	if head == ([32]byte{}) {
		t.Fatal("head hash still zero after appends")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the chain continues from the persisted head.
	l2, err := Open(path, testKey(t))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Len() != 4 || l2.HeadHash() != head {
		t.Fatalf("reopen: len %d head %x, want 4 / %x", l2.Len(), l2.HeadHash(), head)
	}
	if err := l2.Append(Record{Op: OpEscrow, SLID: "SL-1"}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := l2.Verify(); err != nil {
		t.Fatalf("Verify after reopen append: %v", err)
	}
	// Sequence numbers stay contiguous across the restart.
	all := l2.Tail(0)
	if len(all) != 5 {
		t.Fatalf("Tail(0) = %d records, want 5", len(all))
	}
	for i, rec := range all {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, i+1)
		}
	}
}

func TestAuditVerifyDetectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path, testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, l)

	// Flip one payload byte of the first sealed record while the log is
	// still open: the live Verify must fail loudly.
	wal := walFile(t, path)
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	raw[8] ^= 0x01 // first byte past the first frame header
	if err := os.WriteFile(wal, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err == nil {
		t.Fatal("Verify accepted a flipped byte")
	}
	_ = l.Close()
	// And a fresh Open refuses the log outright.
	if _, err := Open(path, testKey(t)); err == nil {
		t.Fatal("Open accepted a flipped byte")
	}
}

func TestAuditVerifyDetectsTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path, testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Op: OpIssue, License: "lic", Units: 10}); err != nil {
		t.Fatal(err)
	}
	wal := walFile(t, path)
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	cut := fi.Size() // frame boundary after record 1
	if err := l.Append(Record{Op: OpRevoke, License: "lic"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify before truncation: %v", err)
	}
	// Roll the file back to exactly one record: the file alone still walks
	// cleanly, so only the head comparison can catch it.
	if err := os.Truncate(wal, cut); err != nil {
		t.Fatal(err)
	}
	if seq, _, err := VerifyFile(path, testKey(t)); err != nil || seq != 1 {
		t.Fatalf("VerifyFile on rolled-back file = seq %d, %v", seq, err)
	}
	err = l.Verify()
	if err == nil {
		t.Fatal("Verify accepted a rolled-back chain")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation error = %v, want mention of truncation", err)
	}
	_ = l.Close()
}

func TestAuditVerifyDetectsReorder(t *testing.T) {
	key := testKey(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.log")
	l, err := Open(path, key)
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	disk, err := store.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	sealed := disk.Records

	// Rewrite the log with records 2 and 3 swapped: every sealed frame is
	// individually authentic, so only the chain walk can object.
	swapped := filepath.Join(dir, "swapped.log")
	out, _, err := store.Open(store.Options{Dir: swapped, Mode: store.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	order := []int{0, 2, 1, 3}
	for _, i := range order {
		if err := out.Append(sealed[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifyFile(swapped, key); err == nil {
		t.Fatal("VerifyFile accepted reordered records")
	}
	if _, err := Open(swapped, key); err == nil {
		t.Fatal("Open accepted reordered records")
	}
}

func TestAuditWrongKeyRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path, testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wrong, err := seccrypto.NewKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifyFile(path, wrong); err == nil ||
		!strings.Contains(err.Error(), "seal validation failed") {
		t.Fatalf("VerifyFile with wrong key = %v, want seal failure", err)
	}
}

// TestAuditFailedAppendKeepsHead pins the no-fork rule: an append the
// store refuses is counted and returned, and neither the sequence nor the
// head hash moves, so the next successful record links to what is on disk.
func TestAuditFailedAppendKeepsHead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path, testKey(t))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.ExposeMetrics(reg)
	appendLifecycle(t, l)
	head := l.HeadHash()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Op: OpRevoke, License: "lic"}); err == nil {
		t.Fatal("append to a closed log succeeded")
	}
	if l.Len() != 4 || l.HeadHash() != head {
		t.Fatalf("failed append moved the head: len %d", l.Len())
	}
	if got := reg.Snapshot().Get("audit_append_failures_total", nil); got != 1 {
		t.Errorf("audit_append_failures_total = %v, want 1", got)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify after a failed append: %v", err)
	}
}

// TestAuditOpenRefusesWhatIsNotAChain covers the two directory states Open
// never leaves behind: an empty directory (the chain's file was removed)
// and one holding a store snapshot (an audit chain never compacts, and a
// planted image would make the store skip the chain's generation).
func TestAuditOpenRefusesWhatIsNotAChain(t *testing.T) {
	key := testKey(t)
	empty := filepath.Join(t.TempDir(), "audit.log")
	if err := os.Mkdir(empty, 0o700); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(empty, key); err == nil {
		t.Fatal("Open started a fresh chain in an empty directory")
	}

	path := filepath.Join(t.TempDir(), "audit.log")
	l, err := Open(path, key)
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open(store.Options{Dir: path, Mode: store.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot([]byte("planted")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifyFile(path, key); err == nil {
		t.Fatal("VerifyFile accepted a compacted directory as an empty chain")
	}
	if _, err := Open(path, key); err == nil {
		t.Fatal("Open accepted a compacted directory as an empty chain")
	}
}

func TestAuditMemoryOnly(t *testing.T) {
	l, err := Open("", seccrypto.Key{})
	if err != nil {
		t.Fatal(err)
	}
	appendLifecycle(t, l)
	if l.Len() != 4 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("memory-only Verify: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAuditNilLog(t *testing.T) {
	var l *Log
	if err := l.Append(Record{Op: OpIssue}); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 || l.Tail(5) != nil || l.HeadHash() != ([32]byte{}) {
		t.Fatal("nil log produced state")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l.ExposeMetrics(obs.NewRegistry())
}

func TestAuditMetricsAndHTTP(t *testing.T) {
	l, err := Open("", seccrypto.Key{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.ExposeMetrics(reg)
	appendLifecycle(t, l)
	snap := reg.Snapshot()
	if got := snap.Get("audit_records_total", map[string]string{"op": OpRenew}); got != 1 {
		t.Errorf("audit_records_total{op=renew} = %v, want 1", got)
	}
	if got := snap.Get("audit_chain_length", nil); got != 4 {
		t.Errorf("audit_chain_length = %v, want 4", got)
	}
	if got := snap.Get("audit_append_failures_total", nil); got != 0 {
		t.Errorf("audit_append_failures_total = %v, want 0", got)
	}
}

func BenchmarkAuditAppendMemory(b *testing.B) {
	l, err := Open("", seccrypto.Key{})
	if err != nil {
		b.Fatal(err)
	}
	rec := Record{Op: OpRenew, SLID: "SL-1", License: "lic", Units: 128,
		Alg1: &Alg1{Alpha: 0.5, ScaleDown: 4, Health: 1, Reliability: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAuditAppendSealed(b *testing.B) {
	l, err := Open(filepath.Join(b.TempDir(), "audit.log"), testKey(b))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := Record{Op: OpRenew, SLID: "SL-1", License: "lic", Units: 128,
		Alg1: &Alg1{Alpha: 0.5, ScaleDown: 4, Health: 1, Reliability: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAuditVerify(b *testing.B) {
	l, err := Open(filepath.Join(b.TempDir(), "audit.log"), testKey(b))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 256; i++ {
		if err := l.Append(Record{Op: OpRenew, SLID: "SL-1", License: "lic", Units: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
