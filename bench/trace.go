package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
	"repro/internal/store"
)

// Span names. Every span is recorded from the benchmark's own files,
// around a call into a public function or interface of the program;
// spans inside the program are a later change.
const (
	spanOp          = "op"                           // one workload op, as its caller sees it
	spanRemoteRenew = "sllocal.RemoteAPI.RenewLease" // the SL-Local → SL-Remote seam
	spanServerRenew = "slremote.Server.RenewLease"   // in-process entry of the standalone rung
	spanLogAppend   = "store.Logger.Append"          // the SL-Remote → WAL seam
	spanSnapshot    = "store.Snapshotter.Snapshot"
)

// span is one recorded interval. Spans of one op share its id; Parent
// names the span of the same op that caused this one ("" for the root).
type span struct {
	Op      uint64 `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"` // since the log was opened
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. It holds the first
// limit spans of each name and counts the rest: a 25 M-op window must
// not turn into a 25 M-entry slice, and an early rung must not use up
// the room of the traced window that follows it.
type spanLog struct {
	t0    time.Time
	limit int

	mu      sync.Mutex
	spans   []span         // guarded by mu
	kept    map[string]int // guarded by mu
	dropped int64          // guarded by mu
}

func newSpanLog(limit int) *spanLog {
	return &spanLog{t0: time.Now(), limit: limit, kept: make(map[string]int)}
}

func (l *spanLog) add(op uint64, name, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.kept[name] < l.limit {
		l.kept[name]++
		l.spans = append(l.spans, span{
			Op: op, Name: name, Parent: parent,
			StartNS: int64(start.Sub(l.t0)), EndNS: int64(end.Sub(l.t0)),
		})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

func (l *spanLog) snapshot() ([]span, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...), l.dropped
}

// writeFile dumps the log as JSON.
func (l *spanLog) writeFile(path string) error {
	spans, dropped := l.snapshot()
	data, err := json.Marshal(struct {
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{dropped, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover. Children may overlap each other and may stick out
// of the parent; only their union, clipped to the parent, is subtracted.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.StartNS, c.EndNS
		if lo < parent.StartNS {
			lo = parent.StartNS
		}
		if hi > parent.EndNS {
			hi = parent.EndNS
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), parent.StartNS
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		if v.lo < end {
			v.lo = end
		}
		covered += v.hi - v.lo
		end = v.hi
	}
	return parent.EndNS - parent.StartNS - covered
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	Count  int64   `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	SelfNS float64 `json:"self_mean_ns"`
}

// selfTimes groups spans by op, resolves each span's children (spans of
// the same op naming it as parent) and returns per-name statistics.
func selfTimes(spans []span) map[string]spanStats {
	type key struct {
		op     uint64
		parent string
	}
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Op, s.Parent}] = append(children[key{s.Op, s.Parent}], s)
		}
	}
	type acc struct {
		n         int64
		dur, self float64
	}
	accs := make(map[string]*acc)
	for _, s := range spans {
		a := accs[s.Name]
		if a == nil {
			a = &acc{}
			accs[s.Name] = a
		}
		a.n++
		a.dur += float64(s.EndNS - s.StartNS)
		a.self += float64(selfTime(s, children[key{s.Op, s.Name}]))
	}
	out := make(map[string]spanStats, len(accs))
	for name, a := range accs {
		out[name] = spanStats{Count: a.n, MeanNS: a.dur / float64(a.n), SelfNS: a.self / float64(a.n)}
	}
	return out
}

// lockedHist is a histogram several goroutines record into.
type lockedHist struct {
	mu sync.Mutex
	h  hist // guarded by mu
}

func (l *lockedHist) record(ns int64) {
	l.mu.Lock()
	l.h.record(ns)
	l.mu.Unlock()
}

func (l *lockedHist) snapshot() *hist {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.h
	return &c
}

// renewKey names a renewal by its arguments.
type renewKey struct{ slid, license string }

// tracedRemote decorates sllocal.RemoteAPI: it times every call that
// crosses the SL-Local → SL-Remote seam, records a span for it under
// the op that caused it, and keeps the exact client ledger of units
// granted. It is the only thing between the SL-Locals of a shard and
// their wire.Client in the trace pass and is absent from end-to-end runs.
type tracedRemote struct {
	inner sllocal.RemoteAPI
	log   *spanLog
	rtt   lockedHist

	mu sync.Mutex
	// open holds the Execute ops in flight, by the renewal each would
	// cause: the program makes that call itself, so the op cannot hand
	// its id down and the decorator finds it by the call's arguments.
	// Two ops on the same instance and license at once share a key; the
	// renewal then goes to the later one.
	open    map[renewKey]uint64 // guarded by mu
	granted map[string]int64    // guarded by mu: units granted per SLID
}

func newTracedRemote(inner sllocal.RemoteAPI, log *spanLog) *tracedRemote {
	return &tracedRemote{inner: inner, log: log, open: map[renewKey]uint64{}, granted: map[string]int64{}}
}

// enter announces that op id is about to call into the program and may
// cause the renewal key; leave withdraws the announcement.
func (t *tracedRemote) enter(key renewKey, id uint64) {
	t.mu.Lock()
	t.open[key] = id
	t.mu.Unlock()
}

func (t *tracedRemote) leave(key renewKey, id uint64) {
	t.mu.Lock()
	if t.open[key] == id {
		delete(t.open, key)
	}
	t.mu.Unlock()
}

// grantedTo is the ledger entry of one SLID.
func (t *tracedRemote) grantedTo(slid string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.granted[slid]
}

func (t *tracedRemote) InitClient(slid string, quote attest.Quote, m *sgx.Machine) (slremote.InitResult, error) {
	return t.inner.InitClient(slid, quote, m)
}

func (t *tracedRemote) EscrowRootKey(slid string, key seccrypto.Key) error {
	return t.inner.EscrowRootKey(slid, key)
}

// RenewLease is the call an SL-Local makes: the op it belongs to, if a
// traced one, is the one announced for these arguments.
func (t *tracedRemote) RenewLease(slid, licenseID string) (slremote.Grant, error) {
	t.mu.Lock()
	opID := t.open[renewKey{slid, licenseID}]
	t.mu.Unlock()
	return t.renewLeaseOp(opID, slid, licenseID)
}

// renewLeaseOp is RenewLease for a caller that knows which op it is in
// (0: none, the call is timed but gets no span).
func (t *tracedRemote) renewLeaseOp(opID uint64, slid, licenseID string) (slremote.Grant, error) {
	start := time.Now()
	g, err := t.inner.RenewLease(slid, licenseID)
	end := time.Now()
	t.rtt.record(int64(end.Sub(start)))
	if opID != 0 {
		t.log.add(opID, spanRemoteRenew, spanOp, start, end)
	}
	if err == nil {
		t.mu.Lock()
		t.granted[slid] += g.Units
		t.mu.Unlock()
	}
	return g, err
}

var _ sllocal.RemoteAPI = (*tracedRemote)(nil)

// tracedLogger decorates the store.Logger / store.Snapshotter pair an
// slremote.Server persists through: the SL-Remote → WAL seam. cur is
// the op the server's caller last announced; with one caller per server
// that is exactly the op an append belongs to, with several (coalesced
// renewals) it is one of the ops the append serves.
type tracedLogger struct {
	log   store.Logger
	snap  store.Snapshotter
	spans *spanLog
	cur   atomic.Uint64
	lat   lockedHist
	bytes atomic.Int64
}

func (t *tracedLogger) Append(rec []byte) error {
	start := time.Now()
	err := t.log.Append(rec)
	end := time.Now()
	t.lat.record(int64(end.Sub(start)))
	t.bytes.Add(int64(len(rec)))
	if op := t.cur.Load(); op != 0 {
		t.spans.add(op, spanLogAppend, spanServerRenew, start, end)
	}
	return err
}

func (t *tracedLogger) Snapshot(state []byte) error {
	start := time.Now()
	err := t.snap.Snapshot(state)
	if op := t.cur.Load(); op != 0 {
		t.spans.add(op, spanSnapshot, spanServerRenew, start, time.Now())
	}
	return err
}

var (
	_ store.Logger      = (*tracedLogger)(nil)
	_ store.Snapshotter = (*tracedLogger)(nil)
)
