package slremote

import (
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/store"
)

// recordingLogger counts and keeps every WAL append so tests can assert
// how many records a workload produced and what they decode to.
type recordingLogger struct {
	inner store.Logger
	mu    sync.Mutex
	recs  [][]byte
}

func (l *recordingLogger) Append(rec []byte) error {
	if err := l.inner.Append(rec); err != nil {
		return err
	}
	l.mu.Lock()
	l.recs = append(l.recs, append([]byte(nil), rec...))
	l.mu.Unlock()
	return nil
}

func (l *recordingLogger) renewRecords(t *testing.T) []event {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []event
	for _, rec := range l.recs {
		var ev event
		if err := json.Unmarshal(rec, &ev); err != nil {
			t.Fatalf("decoding WAL record: %v", err)
		}
		if ev.Op == opRenew {
			out = append(out, ev)
		}
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRenewalCoalescingGroupCommit pins the group commit: N renewals that
// arrive while the batch leader is blocked fold into ONE opRenew WAL
// record (plus the leader's own, the same record shape with one grant),
// every caller still gets its own grant, and the license pool conserves
// units across the batch.
func TestRenewalCoalescingGroupCommit(t *testing.T) {
	const followers = 24
	st, rec := openTestStore(t, t.TempDir())
	defer st.Close()
	if !rec.Empty() {
		t.Fatal("fresh dir not empty")
	}
	s, err := NewServer(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	log := &recordingLogger{inner: st}
	if err := s.AttachPersistence(PersistConfig{Log: log, Snap: st, SealKey: testSealKey(t)}); err != nil {
		t.Fatal(err)
	}

	const total = 1_000_000
	if err := s.RegisterLicense("lic", lease.CountBased, total); err != nil {
		t.Fatal(err)
	}
	slids := make([]string, followers+1)
	for i := range slids {
		res, err := s.InitClient("", attest.Quote{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		slids[i] = res.SLID
	}

	// Hold the state lock: the first renewal becomes the batch leader and
	// blocks inside renewBatch, everyone who arrives meanwhile parks in
	// the pending queue.
	s.mu.Lock()
	grants := make([]Grant, followers+1)
	errs := make([]error, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		grants[0], errs[0] = s.RenewLease(slids[0], "lic")
	}()
	waitFor(t, "leader to drain its own call", func() bool {
		s.renews.mu.Lock()
		defer s.renews.mu.Unlock()
		return s.renews.leading && len(s.renews.pending) == 0
	})
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			grants[i], errs[i] = s.RenewLease(slids[i], "lic")
		}(i)
	}
	waitFor(t, "followers to park in the pending queue", func() bool {
		s.renews.mu.Lock()
		defer s.renews.mu.Unlock()
		return len(s.renews.pending) == followers
	})
	s.mu.Unlock()
	wg.Wait()

	var granted int64
	for i, err := range errs {
		if err != nil {
			t.Fatalf("renewal %d: %v", i, err)
		}
		if grants[i].Units < 1 {
			t.Fatalf("renewal %d granted %d units", i, grants[i].Units)
		}
		granted += grants[i].Units
	}

	// One record for the leader's batch of one, one for everyone who piled
	// up behind it — the same shape, told apart only by the grant count.
	renews := log.renewRecords(t)
	if len(renews) != 2 {
		t.Fatalf("renewal WAL appends = %d, want 2 (leader + one group commit)", len(renews))
	}
	for i, want := range []int{1, followers} {
		if got := len(renews[i].Grants); got != want {
			t.Fatalf("renewal record %d carries %d grants, want %d", i, got, want)
		}
		if renews[i].SLID != "" || renews[i].License != "" || renews[i].Units != 0 {
			t.Fatalf("renewal record %d sets top-level grant fields: %+v", i, renews[i])
		}
	}
	if g := renews[0].Grants[0]; g.SLID != slids[0] || g.License != "lic" || g.Units != grants[0].Units {
		t.Fatalf("leader's record = %+v, want %s/lic/%d", g, slids[0], grants[0].Units)
	}

	// Conservation: what the callers received is exactly what left the
	// pool, and the audit/stats view agrees.
	state := s.ExportState()
	lic := state.Licenses["lic"]
	if total-lic.Remaining != granted {
		t.Fatalf("pool lost %d units but callers received %d", total-lic.Remaining, granted)
	}
	if got := s.Stats().Renewals; got != int64(followers+1) {
		t.Fatalf("Renewals stat = %d, want %d", got, followers+1)
	}
}

// TestRenewBatchReplay proves opRenew records recover whatever their grant
// count: a WAL holding a batch of one and a group commit replays to exactly
// the state the live server exported.
func TestRenewBatchReplay(t *testing.T) {
	dir := t.TempDir()
	var sawBatch bool
	want := persistedServer(t, dir, 0, func(s *Server) {
		if err := s.RegisterLicense("lic", lease.CountBased, 50_000); err != nil {
			t.Fatal(err)
		}
		const n = 8
		slids := make([]string, n)
		for i := range slids {
			res, err := s.InitClient("", attest.Quote{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			slids[i] = res.SLID
		}
		// Same leader-blocking trick as the group-commit test: force one
		// real multi-grant batch into the WAL.
		s.mu.Lock()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.RenewLease(slids[0], "lic"); err != nil {
				t.Errorf("leader renewal: %v", err)
			}
		}()
		waitFor(t, "leader to drain its own call", func() bool {
			s.renews.mu.Lock()
			defer s.renews.mu.Unlock()
			return s.renews.leading && len(s.renews.pending) == 0
		})
		for i := 1; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := s.RenewLease(slids[i], "lic"); err != nil {
					t.Errorf("follower renewal %d: %v", i, err)
				}
			}(i)
		}
		waitFor(t, "followers to park in the pending queue", func() bool {
			s.renews.mu.Lock()
			defer s.renews.mu.Unlock()
			return len(s.renews.pending) == n-1
		})
		s.mu.Unlock()
		wg.Wait()
		sawBatch = true
	})
	if !sawBatch {
		t.Fatal("workload did not run")
	}
	recovered, st := recoverTestServer(t, dir)
	defer st.Close()
	if got := recovered.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state diverges:\n got %+v\nwant %+v", got, want)
	}
}

// gatedLogger passes appends through until armed; from then on every
// Append announces itself on entered and parks until the test sends one
// token on release.
type gatedLogger struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (l *gatedLogger) Append([]byte) error {
	if l.armed.Load() {
		l.entered <- struct{}{}
		<-l.release
	}
	return nil
}

// TestRenewLeaseLeaderReturnsWithItsBatch pins the hand-off: a leader
// answers its own caller as soon as the batch holding its call commits,
// even though later callers keep the queue non-empty, and the oldest parked
// caller leads the next batch.
func TestRenewLeaseLeaderReturnsWithItsBatch(t *testing.T) {
	s, err := NewServer(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	log := &gatedLogger{entered: make(chan struct{}), release: make(chan struct{})}
	if err := s.AttachPersistence(PersistConfig{Log: log, SealKey: testSealKey(t)}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterLicense("lic", lease.CountBased, 1_000_000); err != nil {
		t.Fatal(err)
	}
	slids := make([]string, 4)
	for i := range slids {
		res, err := s.InitClient("", attest.Quote{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		slids[i] = res.SLID
	}
	log.armed.Store(true)

	done := make([]chan error, len(slids))
	renew := func(i int) {
		done[i] = make(chan error, 1)
		go func() {
			_, err := s.RenewLease(slids[i], "lic")
			done[i] <- err
		}()
	}
	parked := func(n int) func() bool {
		return func() bool {
			s.renews.mu.Lock()
			defer s.renews.mu.Unlock()
			return len(s.renews.pending) == n
		}
	}
	finished := func(i int) {
		t.Helper()
		select {
		case err := <-done[i]:
			if err != nil {
				t.Fatalf("renewal %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("renewal %d still waiting although its batch committed", i)
		}
	}

	renew(0) // leads a batch of one, parked in its WAL append
	<-log.entered
	renew(1)
	renew(2)
	waitFor(t, "two callers to park behind the leader", parked(2))
	log.release <- struct{}{}

	// The second batch {1, 2} is now stuck in its own append, led by
	// caller 1; caller 0 must already have its answer.
	<-log.entered
	finished(0)
	for _, i := range []int{1, 2} {
		select {
		case err := <-done[i]:
			t.Fatalf("renewal %d returned (%v) before its batch committed", i, err)
		default:
		}
	}

	// The queue stays non-empty across the next hand-off too.
	renew(3)
	waitFor(t, "a caller to park behind the second leader", parked(1))
	log.release <- struct{}{}
	finished(1)
	finished(2)
	<-log.entered
	log.release <- struct{}{}
	finished(3)

	if got := s.Stats().Renewals; got != 4 {
		t.Fatalf("Renewals stat = %d, want 4", got)
	}
	s.renews.mu.Lock()
	defer s.renews.mu.Unlock()
	if s.renews.leading || len(s.renews.pending) != 0 {
		t.Fatalf("batcher not idle after the last batch: leading=%v pending=%d", s.renews.leading, len(s.renews.pending))
	}
}
