package leasetree

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lease"
)

// TestParallelValidationLinearizable is the lost-update check for the
// striped fast path: many workers concurrently decrement the same records
// — some through the read-locked stripe path, some through write-locked
// restores — while a churn goroutine commits leases and an eviction
// goroutine flips the budget to force offload/restore storms. Every
// decrement the tree accepted must be visible at the end, and every
// concurrent Find must observe an untorn record.
func TestParallelValidationLinearizable(t *testing.T) {
	const (
		records = 256
		workers = 8
		opsEach = 2500
		initial = int64(1) << 40
	)
	tr := NewTree()
	for i := 0; i < records; i++ {
		if err := tr.Put(mkRecord(lease.ID(i+1), initial)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}

	// applied[i] counts decrements of record i+1; incremented inside fn,
	// i.e. under whatever exclusion the tree granted the update, so the
	// expected counter per record is exact even under contention.
	applied := make([]atomic.Int64, records)
	stop := make(chan struct{})
	var churn sync.WaitGroup

	// Commit churn: keeps offloading random leases so validations keep
	// crossing the resident/offloaded boundary in both directions.
	churn.Add(1)
	go func() {
		defer churn.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tr.CommitLease(lease.ID(rng.Intn(records) + 1)); err != nil {
				t.Errorf("CommitLease: %v", err)
				return
			}
		}
	}()
	// Budget churn: alternates a starvation budget (eviction storms) with
	// no budget, so enforceBudgetLocked runs against live validations.
	churn.Add(1)
	go func() {
		defer churn.Done()
		tight := int64(records/4)*lease.RecordSize + 64*NodeSize
		for i := 0; ; i++ {
			select {
			case <-stop:
				tr.SetBudget(0)
				return
			default:
			}
			if i%2 == 0 {
				tr.SetBudget(tight)
			} else {
				tr.SetBudget(0)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < opsEach; i++ {
				id := lease.ID(rng.Intn(records) + 1)
				if i%2 == 0 {
					rec, err := tr.Find(id)
					if err != nil {
						errs[w] = fmt.Errorf("Find(%d): %w", id, err)
						return
					}
					if rec.ID != id || rec.Owner != fmt.Sprintf("lic-%d", id) {
						errs[w] = fmt.Errorf("Find(%d) returned torn record %d/%q", id, rec.ID, rec.Owner)
						return
					}
					if rec.GCL.Counter < 0 || rec.GCL.Counter > initial {
						errs[w] = fmt.Errorf("Find(%d) counter %d out of range", id, rec.GCL.Counter)
						return
					}
					continue
				}
				err := tr.Update(id, func(r *lease.Record) error {
					r.GCL.Counter--
					applied[id-1].Add(1)
					return nil
				})
				if err != nil {
					errs[w] = fmt.Errorf("Update(%d): %w", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	if got := tr.Len(); got != records {
		t.Fatalf("Len = %d, want %d", got, records)
	}
	for i := 0; i < records; i++ {
		id := lease.ID(i + 1)
		rec, err := tr.Find(id)
		if err != nil {
			t.Fatalf("final Find(%d): %v", id, err)
		}
		want := initial - applied[i].Load()
		if rec.GCL.Counter != want {
			t.Fatalf("record %d lost updates: counter %d, want %d", id, rec.GCL.Counter, want)
		}
	}
}

// TestValidationSharesReadLock pins the locking discipline itself: with
// the tree's read lock held externally (standing in for any number of
// in-flight validations), further Finds and Updates on resident paths
// still complete — they need only the read lock plus a record stripe,
// never the write lock. Under the old single-mutex tree this deadlocks.
func TestValidationSharesReadLock(t *testing.T) {
	tr := NewTree()
	for i := 1; i <= 16; i++ {
		if err := tr.Put(mkRecord(lease.ID(i), 100)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= 16; i++ {
			id := lease.ID(i)
			if _, err := tr.Find(id); err != nil {
				done <- err
				return
			}
			if err := tr.Update(id, func(r *lease.Record) error {
				r.GCL.Counter--
				return nil
			}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("validation under shared read lock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resident-path validation blocked on the write lock")
	}
}

// BenchmarkLeaseTreeValidateParallel measures token-validation throughput
// on a fully resident tree across all cores: each iteration is one
// Find-then-Update pair (the validate-and-decrement shape SL-Local runs
// per token check). The read-locked striped fast path is what lets this
// scale with GOMAXPROCS instead of serializing on one tree mutex.
func BenchmarkLeaseTreeValidateParallel(b *testing.B) {
	const n = 4096
	tr := NewTree()
	for i := 0; i < n; i++ {
		if err := tr.Put(mkRecord(lease.ID(i+1), 1<<40)); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(next.Add(1)))
		for pb.Next() {
			id := lease.ID(rng.Intn(n) + 1)
			if _, err := tr.Find(id); err != nil {
				b.Error(err)
				return
			}
			err := tr.Update(id, func(r *lease.Record) error {
				r.GCL.Counter--
				return nil
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestResidentValidateAllocatesOnce pins the cost of the token check
// BenchmarkLeaseTreeValidateParallel times: on a resident tree one
// Find-then-Update pair allocates exactly once, for the copy-on-write
// snapshot Update publishes. Anything more means the read-locked path
// grew a copy of its own.
func TestResidentValidateAllocatesOnce(t *testing.T) {
	const n = 4096
	tr := NewTree()
	for i := 0; i < n; i++ {
		if err := tr.Put(mkRecord(lease.ID(i+1), 1<<40)); err != nil {
			t.Fatal(err)
		}
	}
	decrement := func(r *lease.Record) error {
		r.GCL.Counter--
		return nil
	}
	next := 0
	allocs := testing.AllocsPerRun(1000, func() {
		id := lease.ID(next%n + 1)
		next += 97
		if _, err := tr.Find(id); err != nil {
			t.Fatal(err)
		}
		if err := tr.Update(id, decrement); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("resident Find+Update allocates %.2f times, want exactly 1", allocs)
	}
}
