package harness

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/lease"
	"repro/internal/leasetree"
)

// Table1OpCounts are the lease-operation counts the paper measures
// (Table 1: 10, 100, 1000, 5000 lease ops).
var Table1OpCounts = []int{10, 100, 1000, 5000}

// Table1Row is one storage scheme's lookup latencies.
type Table1Row struct {
	Technique string
	// Latency maps op count → total wall time for that many find()
	// operations (the paper reports the same aggregate in µs).
	Latency map[int]time.Duration
}

// Table1Result reproduces Table 1: find() performance of the tree-based
// SL-Local against MurmurHash and SHA-256 hash tables.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 populates each store with 5000 leases and times find() batches
// at each op count, keeping the best of repeats. Each repeat times every
// op count and the three schemes back to back, so a burst of load on the
// machine lands on all schemes rather than on whichever happened to be
// running, and on a few repeats of an op count rather than on all of them.
func Table1(repeats int) (*Table1Result, error) {
	if repeats <= 0 {
		repeats = 3
	}
	type scheme struct {
		name string
		mk   func() leasetree.Store
	}
	schemes := []scheme{
		{"Murmur Hash", func() leasetree.Store { return leasetree.NewHashStore(leasetree.HashMurmur) }},
		{"SHA-256", func() leasetree.Store { return leasetree.NewHashStore(leasetree.HashSHA256) }},
		{"Tree", func() leasetree.Store { return leasetree.NewTree() }},
	}

	const population = 5000
	alloc := leasetree.NewIDAllocator()
	block := alloc.NextBlock()
	ids := make([]lease.ID, 0, population)
	for i := 0; i < population; i++ {
		if block.Remaining() == 0 {
			block = alloc.NextBlock()
		}
		id, _ := block.Next()
		ids = append(ids, id)
	}
	stores := make([]leasetree.Store, len(schemes))
	res := &Table1Result{Rows: make([]Table1Row, len(schemes))}
	for s, sc := range schemes {
		stores[s] = sc.mk()
		res.Rows[s] = Table1Row{Technique: sc.name, Latency: make(map[int]time.Duration, len(Table1OpCounts))}
		for _, id := range ids {
			if err := stores[s].Put(lease.Record{ID: id, GCL: lease.NewCountGCL(100), Owner: "t1"}); err != nil {
				return nil, fmt.Errorf("harness: populating %s: %w", sc.name, err)
			}
		}
	}
	// Populating allocated every record; collect now so no GC cycle is
	// still marking the stores' heap while they are timed.
	runtime.GC()
	for r := 0; r < repeats; r++ {
		for _, ops := range Table1OpCounts {
			for s, store := range stores {
				find := func() error {
					for i := 0; i < ops; i++ {
						if _, err := store.Find(ids[(i*97)%population]); err != nil {
							return fmt.Errorf("harness: %s find: %w", schemes[s].name, err)
						}
					}
					return nil
				}
				// An untimed pass first: the scheme timed just before
				// this one has filled the caches with its own data.
				if err := find(); err != nil {
					return nil, err
				}
				start := time.Now()
				if err := find(); err != nil {
					return nil, err
				}
				elapsed := time.Since(start)
				if best, ok := res.Rows[s].Latency[ops]; !ok || elapsed < best {
					res.Rows[s].Latency[ops] = elapsed
				}
			}
		}
	}
	return res, nil
}

// TreeFasterThanHashes reports whether the tree wins at the largest op
// count — the paper's key claim (58% vs Murmur, 89% vs SHA-256 at 5000).
func (r *Table1Result) TreeFasterThanHashes() bool {
	byName := make(map[string]time.Duration, len(r.Rows))
	maxOps := Table1OpCounts[len(Table1OpCounts)-1]
	for _, row := range r.Rows {
		byName[row.Technique] = row.Latency[maxOps]
	}
	tree, okT := byName["Tree"]
	mur, okM := byName["Murmur Hash"]
	sha, okS := byName["SHA-256"]
	return okT && okM && okS && tree < mur && tree < sha
}

// Render prints the table in the paper's layout.
func (r *Table1Result) Render() string {
	header := []string{"Technique"}
	for _, ops := range Table1OpCounts {
		header = append(header, fmt.Sprintf("%d", ops))
	}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{row.Technique}
		for _, ops := range Table1OpCounts {
			cells = append(cells, fmt.Sprintf("%.1fµs", float64(row.Latency[ops].Nanoseconds())/1e3))
		}
		rows = append(rows, cells)
	}
	return renderTable("Table 1: find() latency for different lease-storage schemes (lease ops)", header, rows)
}
