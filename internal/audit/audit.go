// Package audit is SecureLease's tamper-evident lease-audit log: an
// append-only record of every lease lifecycle decision SL-Remote makes —
// license issue, Algorithm-1 renewals with their full inputs, denials,
// revocations, escrows, and crash forfeits — so execution-control
// decisions can be reconstructed and disputed after the fact.
//
// Integrity comes from two layers. Each record carries the SHA-256 of the
// previous record's plaintext (a hash chain: removing, reordering, or
// rewriting any interior record breaks every subsequent link), and each
// record is sealed at rest with AES-GCM (seccrypto.ProtectWithKey), so a
// party without the seal key cannot forge a replacement chain. On disk the
// sealed records are the WAL of a store.Store that is never snapshotted
// (so never compacted), fsynced on every append; Verify re-walks the whole
// log and fails loudly on any break.
package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/seccrypto"
	"repro/internal/store"
)

// Record operations.
const (
	OpIssue        = "issue"         // license registered
	OpRenew        = "renew"         // Algorithm-1 renewal granted
	OpDeny         = "deny"          // renewal refused
	OpRevoke       = "revoke"        // license revoked
	OpInit         = "init"          // client init() handshake accepted
	OpEscrow       = "escrow"        // root key escrowed at graceful shutdown
	OpCrashForfeit = "crash_forfeit" // outstanding lease forfeited (pessimistic policy)
)

// Alg1 captures the Algorithm-1 state behind one renewal decision: the
// concurrency share α_i, the configured scale-down D (as effectively
// applied), the health h_i and observed network reliability n_i used, and
// the expected loss after the grant.
type Alg1 struct {
	Alpha        float64 `json:"alpha"`
	ScaleDown    float64 `json:"scale_down"`
	Health       float64 `json:"health"`
	Reliability  float64 `json:"reliability"`
	ExpectedLoss float64 `json:"expected_loss,omitempty"`
}

// Record is one audit-log entry. Seq, Time, and PrevHash are assigned by
// Append; everything else is caller-supplied.
type Record struct {
	// Seq numbers records from 1, contiguously.
	Seq uint64 `json:"seq"`
	// Time is the append wall-clock time in Unix nanoseconds.
	Time int64 `json:"time"`
	// Op is one of the Op* constants.
	Op string `json:"op"`
	// SLID is the client involved, if any.
	SLID string `json:"slid,omitempty"`
	// License is the license involved, if any.
	License string `json:"license,omitempty"`
	// Units is the grant/forfeit/issue size in lease units.
	Units int64 `json:"units,omitempty"`
	// Alg1 carries the renewal decision's inputs (renew records only).
	Alg1 *Alg1 `json:"alg1,omitempty"`
	// Err is the refusal reason (deny records).
	Err string `json:"err,omitempty"`
	// PrevHash is the SHA-256 of the previous record's plaintext encoding;
	// all zeros for the first record.
	PrevHash []byte `json:"prev_hash"`
}

// tailCap bounds the in-memory window served by the /audit endpoint.
const tailCap = 512

// Log is an audit log open for appending. All methods are safe for
// concurrent use. A nil *Log is safe: Append and Verify no-op.
type Log struct {
	mu       sync.Mutex
	st       *store.Store // nil for a memory-only log
	path     string       // the store's directory
	sealKey  seccrypto.Key
	seq      uint64
	lastHash [32]byte
	tail     []Record // most recent tailCap records, oldest first

	appends  *obs.CounterVec // audit_records_total{op}
	failures *obs.Counter    // audit_append_failures_total
}

// Open opens (creating if needed) the audit log in the store directory at
// path, sealed with sealKey, and replays the existing chain to find the
// head. An empty path yields a memory-only log (tests, embedded
// deployments). A broken chain — bad seal, bad hash link, non-contiguous
// sequence — is a loud error.
func Open(path string, sealKey seccrypto.Key) (*Log, error) {
	l := &Log{sealKey: sealKey}
	if path == "" {
		return l, nil
	}
	// Open creates the directory and its log in one call, so an empty
	// directory is one whose chain was removed (or never an audit log):
	// starting a fresh chain there would pass a rollback off as first boot.
	if entries, err := os.ReadDir(path); err == nil && len(entries) == 0 {
		return nil, fmt.Errorf("audit: %s is an empty directory, not an audit log (chain deleted, or wrong path)", path)
	}
	// Metrics stay nil: store_* counters describe the state WAL alone.
	st, rec, err := store.Open(store.Options{Dir: path, Mode: store.SyncAlways})
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	seq, head, tail, err := walkChain(rec, sealKey)
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	l.st = st
	l.path = path
	l.seq = seq
	l.lastHash = head
	l.tail = tail
	return l, nil
}

// walkChain validates the sealed records recovered from the log's store:
// every record must unseal, link to its predecessor's hash, and carry the
// next sequence number. It returns the head position and the trailing
// window. The log never snapshots, so a recovered snapshot means the
// directory is not an audit log — or someone planted an image to make the
// store skip the chain's generation — and is refused like any other break.
func walkChain(disk *store.Recovered, sealKey seccrypto.Key) (seq uint64, head [32]byte, tail []Record, err error) {
	if disk.Snapshot != nil {
		return 0, head, nil, fmt.Errorf("audit: store holds a generation-%d snapshot; an audit chain never compacts (wrong directory, or tampered)", disk.Generation)
	}
	for i, ct := range disk.Records {
		plain, verr := seccrypto.Validate(ct, sealKey)
		if verr != nil {
			return 0, head, nil, fmt.Errorf("audit: record %d: seal validation failed (tampered or wrong key)", i)
		}
		var rec Record
		if uerr := json.Unmarshal(plain, &rec); uerr != nil {
			return 0, head, nil, fmt.Errorf("audit: record %d: decoding: %w", i, uerr)
		}
		if rec.Seq != seq+1 {
			return 0, head, nil, fmt.Errorf("audit: record %d: sequence %d, want %d (reordered or dropped)", i, rec.Seq, seq+1)
		}
		if !bytes.Equal(rec.PrevHash, head[:]) {
			return 0, head, nil, fmt.Errorf("audit: record %d: hash chain broken (prev_hash mismatch)", i)
		}
		seq = rec.Seq
		head = sha256.Sum256(plain)
		tail = append(tail, rec)
		if len(tail) > tailCap {
			tail = tail[1:]
		}
	}
	return seq, head, tail, nil
}

// Append assigns the record its sequence number, timestamp, and chain
// link, seals it, and writes it out (fsynced). Failures are counted in
// audit_append_failures_total and returned; the in-memory head only
// advances on success, so a failed append never forks the chain. Safe on
// a nil receiver (no-op).
func (l *Log) Append(rec Record) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.Seq = l.seq + 1
	rec.Time = time.Now().UnixNano()
	rec.PrevHash = append([]byte(nil), l.lastHash[:]...)
	plain, err := json.Marshal(rec)
	if err != nil {
		l.failures.Inc()
		return fmt.Errorf("audit: encoding record: %w", err)
	}
	if l.st != nil {
		sealed, err := seccrypto.ProtectWithKey(plain, l.sealKey, nil)
		if err != nil {
			l.failures.Inc()
			return fmt.Errorf("audit: sealing record: %w", err)
		}
		if err := l.st.Append(sealed); err != nil {
			l.failures.Inc()
			return fmt.Errorf("audit: %w", err)
		}
	}
	l.seq = rec.Seq
	l.lastHash = sha256.Sum256(plain)
	l.tail = append(l.tail, rec)
	if len(l.tail) > tailCap {
		l.tail = l.tail[1:]
	}
	l.appends.With(rec.Op).Inc()
	return nil
}

// Len returns the number of records appended to the chain.
func (l *Log) Len() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// HeadHash returns the SHA-256 of the last record's plaintext (all zeros
// for an empty chain).
func (l *Log) HeadHash() [32]byte {
	if l == nil {
		return [32]byte{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastHash
}

// Tail returns a copy of the most recent records, oldest first, at most n
// (n <= 0 means the whole retained window).
func (l *Log) Tail(n int) []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tail
	if n > 0 && len(t) > n {
		t = t[len(t)-n:]
	}
	return append([]Record(nil), t...)
}

// Verify re-reads the log from disk and walks the full chain, then checks
// that the on-disk head matches the in-memory head. It detects interior
// tampering (seal or hash-link failure), reordering (sequence breaks), and
// truncation (disk chain shorter than what was appended). Memory-only logs
// trivially verify. Safe on a nil receiver.
func (l *Log) Verify() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	path := l.path
	seq := l.seq
	head := l.lastHash
	l.mu.Unlock()
	if path == "" {
		return nil
	}
	gotSeq, gotHead, err := VerifyFile(path, l.sealKey)
	if err != nil {
		return err
	}
	if gotSeq != seq || gotHead != head {
		return fmt.Errorf("audit: disk chain ends at record %d, expected %d (truncated or rolled back)", gotSeq, seq)
	}
	return nil
}

// VerifyFile walks the audit chain in the store directory at path with
// sealKey and returns its length and head hash. It only reads, so it is
// safe beside a live writer. Any seal failure, hash-link break, or
// sequence gap is an error naming the offending record.
func VerifyFile(path string, sealKey seccrypto.Key) (uint64, [32]byte, error) {
	rec, err := store.Recover(path)
	if err != nil {
		return 0, [32]byte{}, fmt.Errorf("audit: %w", err)
	}
	seq, head, _, err := walkChain(rec, sealKey)
	return seq, head, err
}

// Close closes the underlying store; later Appends fail. Safe on a nil
// receiver.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.st == nil {
		return nil
	}
	return l.st.Close()
}

// ExposeMetrics registers the log's metrics with an obs registry.
//
// Metric inventory: audit_records_total{op}, audit_append_failures_total,
// audit_chain_length.
func (l *Log) ExposeMetrics(reg *obs.Registry) {
	if l == nil || reg == nil {
		return
	}
	l.mu.Lock()
	l.appends = reg.CounterVec("audit_records_total", "Audit records appended, by operation.", "op")
	l.failures = reg.Counter("audit_append_failures_total", "Audit appends that failed (seal or I/O error).")
	l.mu.Unlock()
	reg.GaugeFunc("audit_chain_length", "Records in the audit hash chain.", nil,
		func() float64 { return float64(l.Len()) })
}

// HTTPHandler serves the /audit endpoint: a JSON view of the chain head
// and the last N records (?n=, default 100, capped at the retained
// window).
func (l *Log) HTTPHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := 100
		if s := req.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		head := l.HeadHash()
		resp := struct {
			Length   uint64   `json:"length"`
			HeadHash string   `json:"head_hash"`
			Records  []Record `json:"records"`
		}{
			Length:   l.Len(),
			HeadHash: hex.EncodeToString(head[:]),
			Records:  l.Tail(n),
		}
		if resp.Records == nil {
			resp.Records = []Record{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
	})
}
