package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func openT(t testing.TB, dir string, mode SyncMode) (*Store, *Recovered) {
	t.Helper()
	s, rec, err := Open(Options{Dir: dir, Mode: mode})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rec
}

func appendAll(t testing.TB, s *Store, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := s.Append([]byte(r)); err != nil {
			t.Fatalf("Append(%q): %v", r, err)
		}
	}
}

func recordsAsStrings(rec *Recovered) []string {
	out := make([]string, len(rec.Records))
	for i, r := range rec.Records {
		out[i] = string(r)
	}
	return out
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncBatched, SyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			// A nested path exercises parent-directory creation.
			dir := filepath.Join(t.TempDir(), "sub", "log")
			s, rec := openT(t, dir, mode)
			if !rec.Empty() {
				t.Fatalf("fresh dir recovered non-empty state: %+v", rec)
			}
			appendAll(t, s, "one", "two", "three")
			// A read-only Recover sees the records while the writer is
			// still open (the audit chain's live Verify depends on it).
			live, err := Recover(dir)
			if err != nil {
				t.Fatalf("Recover beside a live writer: %v", err)
			}
			if got := len(live.Records); got != 3 {
				t.Fatalf("live Recover = %d records, want 3", got)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s2, rec2 := openT(t, dir, mode)
			defer s2.Close()
			if got, want := recordsAsStrings(rec2), []string{"one", "two", "three"}; !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered %v, want %v", got, want)
			}
			if rec2.Snapshot != nil {
				t.Fatalf("unexpected snapshot: %q", rec2.Snapshot)
			}
			// Appends keep working against the recovered log.
			appendAll(t, s2, "four")
		})
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	s, _ := openT(t, t.TempDir(), SyncOff)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestEmptyRecordRejected(t *testing.T) {
	s, _ := openT(t, t.TempDir(), SyncOff)
	defer s.Close()
	if err := s.Append(nil); err == nil {
		t.Fatal("empty append accepted")
	}
}

// TestBatchedGroupCommit drives concurrent appenders through the batched
// fsync path: every append must come back durable and recovery must see
// all of them exactly once.
func TestBatchedGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, SyncBatched)
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Append(fmt.Appendf(nil, "w%d-%d", w, i)); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := openT(t, dir, SyncBatched)
	if got, want := len(rec.Records), writers*perWriter; got != want {
		t.Fatalf("recovered %d records, want %d", got, want)
	}
	seen := make(map[string]bool, len(rec.Records))
	for _, r := range rec.Records {
		if seen[string(r)] {
			t.Fatalf("duplicate record %q", r)
		}
		seen[string(r)] = true
	}
}

// TestTornTailTruncated simulates a kill mid-append: a partial frame at
// the end of the WAL is dropped on recovery (and physically truncated by
// Open), with every complete record preserved.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, SyncAlways)
	appendAll(t, s, "alpha", "beta")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A torn write: the first 5 bytes of what would have been a full frame.
	full := appendRecord(nil, []byte("gamma-never-committed"))
	wal := walPath(dir, 0)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	if _, err := f.Write(full[:5]); err != nil {
		t.Fatalf("torn write: %v", err)
	}
	f.Close()

	s2, rec := openT(t, dir, SyncAlways)
	if got, want := recordsAsStrings(rec), []string{"alpha", "beta"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if rec.TruncatedBytes != 5 {
		t.Fatalf("TruncatedBytes = %d, want 5", rec.TruncatedBytes)
	}
	// Open physically truncated the tail: appending and re-recovering
	// yields a clean log.
	appendAll(t, s2, "gamma")
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec2 := openT(t, dir, SyncAlways)
	if got, want := recordsAsStrings(rec2), []string{"alpha", "beta", "gamma"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after torn repair recovered %v, want %v", got, want)
	}
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("TruncatedBytes after repair = %d", rec2.TruncatedBytes)
	}
}

// TestZeroFilledTailTruncated covers the preallocation case: a run of NUL
// bytes after the last record is a torn tail, not an endless stream of
// empty records.
func TestZeroFilledTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, SyncAlways)
	appendAll(t, s, "alpha")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f, err := os.OpenFile(walPath(dir, 0), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatalf("zero fill: %v", err)
	}
	f.Close()
	_, rec := openT(t, dir, SyncAlways)
	if got, want := recordsAsStrings(rec), []string{"alpha"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if rec.TruncatedBytes != 64 {
		t.Fatalf("TruncatedBytes = %d, want 64", rec.TruncatedBytes)
	}
}

// TestMiddleCorruptionIsAnError flips one payload byte of an interior
// record: recovery must stop with a diagnostic error, never silently drop
// or skip committed data.
func TestMiddleCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, SyncAlways)
	appendAll(t, s, "first", "second", "third")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wal := walPath(dir, 0)
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	// Corrupt a payload byte of the middle record ("second"): frame 1
	// starts after frame 0 (header + "first").
	off := frameHeaderSize + len("first") + frameHeaderSize
	raw[off] ^= 0xff
	if err := os.WriteFile(wal, raw, 0o600); err != nil {
		t.Fatalf("write wal: %v", err)
	}
	_, err = Recover(dir)
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("Recover on corrupt middle record = %v, want ErrCorruptRecord", err)
	}
	if _, _, oerr := Open(Options{Dir: dir}); !errors.Is(oerr, ErrCorruptRecord) {
		t.Fatalf("Open on corrupt middle record = %v, want ErrCorruptRecord", oerr)
	}
}

// TestSnapshotCompaction takes a snapshot mid-stream and verifies the
// recovered view is snapshot + tail only, with the previous generation's
// files gone.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, SyncAlways)
	appendAll(t, s, "pre-1", "pre-2")
	if err := s.Snapshot([]byte("STATE@2")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendAll(t, s, "post-1")
	if got := s.Generation(); got != 1 {
		t.Fatalf("Generation = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec := openT(t, dir, SyncAlways)
	if string(rec.Snapshot) != "STATE@2" {
		t.Fatalf("Snapshot = %q", rec.Snapshot)
	}
	if got, want := recordsAsStrings(rec), []string{"post-1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tail records %v, want %v", got, want)
	}
	if rec.Generation != 1 {
		t.Fatalf("Generation = %d, want 1", rec.Generation)
	}
	for _, stale := range []string{walPath(dir, 0), snapPath(dir, 0)} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Fatalf("stale file %s survived compaction (err=%v)", stale, err)
		}
	}
}

// TestStaleGenerationCleanedOnOpen plants leftovers from an interrupted
// compaction (old generation files plus a snapshot temp file) and checks
// recovery ignores them and Open sweeps the old generation.
func TestStaleGenerationCleanedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, SyncAlways)
	appendAll(t, s, "old")
	if err := s.Snapshot([]byte("IMG")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendAll(t, s, "new")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Resurrect generation-0 leftovers and a dangling temp file.
	if err := os.WriteFile(walPath(dir, 0), appendRecord(nil, []byte("zombie")), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath(dir, 2)+".tmp", []byte("partial"), 0o600); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, dir, SyncAlways)
	defer s2.Close()
	if string(rec.Snapshot) != "IMG" || len(rec.Records) != 1 || string(rec.Records[0]) != "new" {
		t.Fatalf("recovered snapshot=%q records=%v", rec.Snapshot, recordsAsStrings(rec))
	}
	if _, err := os.Stat(walPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatalf("stale generation-0 WAL not swept (err=%v)", err)
	}
}

// TestSnapshotWALReplayEquivalence checks the core durability contract at
// the byte level: folding the recovered snapshot+records must equal
// folding the original append stream, whether or not snapshots intervene.
func TestSnapshotWALReplayEquivalence(t *testing.T) {
	fold := func(snapshot []byte, recs [][]byte) []byte {
		out := append([]byte(nil), snapshot...)
		for _, r := range recs {
			out = append(out, r...)
			out = append(out, '|')
		}
		return out
	}
	var want []byte
	dir := t.TempDir()
	s, _ := openT(t, dir, SyncBatched)
	for i := 0; i < 40; i++ {
		rec := fmt.Appendf(nil, "event-%02d", i)
		if err := s.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
		want = append(want, rec...)
		want = append(want, '|')
		if i%17 == 16 {
			if err := s.Snapshot(want); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := fold(rec.Snapshot, rec.Records); !bytes.Equal(got, want) {
		t.Fatalf("folded recovery mismatch:\n got %q\nwant %q", got, want)
	}
}

func TestCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, SyncAlways)
	appendAll(t, s, "x")
	if err := s.Snapshot([]byte("IMG")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := snapPath(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("Recover with corrupt snapshot = %v, want ErrCorruptRecord", err)
	}
}

func TestParseSyncMode(t *testing.T) {
	for in, want := range map[string]SyncMode{"always": SyncAlways, "batched": SyncBatched, "off": SyncOff} {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestParseGenFile(t *testing.T) {
	cases := []struct {
		name string
		gen  uint64
		kind string
		ok   bool
	}{
		{"wal-0000000000000000.log", 0, "wal", true},
		{"snap-000000000000002a.snap", 42, "snap", true},
		{"snap-000000000000002a.snap.tmp", 0, "", false},
		{"notes.txt", 0, "", false},
		{"wal-xyz.log", 0, "", false},
	}
	for _, c := range cases {
		gen, kind, ok := parseGenFile(c.name)
		if gen != c.gen || kind != c.kind || ok != c.ok {
			t.Fatalf("parseGenFile(%q) = %d, %q, %v; want %d, %q, %v",
				c.name, gen, kind, ok, c.gen, c.kind, c.ok)
		}
	}
}

// FuzzWALRecord fuzzes the frame decoder: arbitrary bytes must never
// panic, every accepted frame must re-encode to the same bytes, and every
// encoded payload must decode back to itself.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendRecord(nil, []byte("seed-record")))
	f.Add(appendRecord(appendRecord(nil, []byte("a")), []byte("b")))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := decodeRecord(data)
		if err == nil {
			if n < frameHeaderSize || n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			if got := appendRecord(nil, payload); !bytes.Equal(got, data[:n]) {
				t.Fatalf("re-encode mismatch: %x vs %x", got, data[:n])
			}
		}
		// Round trip: any payload (including this fuzz input) survives
		// encode → decode.
		frame := appendRecord(nil, data)
		back, n2, err2 := decodeRecord(frame)
		if err2 != nil || n2 != len(frame) || !bytes.Equal(back, data) {
			t.Fatalf("round trip failed: err=%v n=%d", err2, n2)
		}
		// decodeAll must not lose committed data silently either.
		if recs, truncated, derr := decodeAll(data); derr == nil {
			consumed := truncated
			for _, r := range recs {
				consumed += frameHeaderSize + len(r)
			}
			if consumed != len(data) {
				t.Fatalf("decodeAll accounted for %d of %d bytes", consumed, len(data))
			}
		}
	})
}

// BenchmarkRecover measures cold recovery of a 10k-record WAL — the
// acceptance bar is well under a second per recovery.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	s, _, err := Open(Options{Dir: dir, Mode: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 120) // typical JSON event size
	for i := 0; i < 10_000; i++ {
		if err := s.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := Recover(dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(rec.Records) != 10_000 {
			b.Fatalf("recovered %d records", len(rec.Records))
		}
	}
}

// BenchmarkAppend measures the WAL append hot path — the cost every
// SL-Remote mutation pays — without fsync so the framing and FS
// indirection dominate rather than the disk.
func BenchmarkAppend(b *testing.B) {
	s, _, err := Open(Options{Dir: b.TempDir(), Mode: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := bytes.Repeat([]byte("x"), 120)
	b.SetBytes(int64(frameHeaderSize + len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecoverTenThousandUnderASecond pins the acceptance criterion as a
// test (generously: the benchmark shows recovery is ~3 orders of magnitude
// faster than the bound).
func TestRecoverTenThousandUnderASecond(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, SyncOff)
	payload := bytes.Repeat([]byte("y"), 120)
	for i := 0; i < 10_000; i++ {
		if err := s.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("recovery of %d records took %v (> 1s)", len(rec.Records), elapsed)
	}
	if len(rec.Records) != 10_000 {
		t.Fatalf("recovered %d records", len(rec.Records))
	}
}
