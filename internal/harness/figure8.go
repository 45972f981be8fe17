package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/sgx"
	"repro/internal/sllocal"
)

// Figure8Point is one bar of Figure 8: allocation throughput for one
// concurrency level and configuration.
type Figure8Point struct {
	Enclaves   int
	SameLease  bool
	TokenBatch int
	// Allocations is the number of successful lease allocations (grants)
	// completed within the measurement window.
	Allocations int64
	// Throughput is allocations per second.
	Throughput float64
}

// Figure8Result reproduces Figure 8: SL-Local attestation performance for
// 1..N concurrent enclaves requesting the same or different leases, with
// and without 10-token batching.
type Figure8Result struct {
	Window time.Duration
	Points []Figure8Point
}

// Figure8Concurrency is the enclave counts measured (the paper sweeps
// concurrent enclaves on an 8-core machine).
var Figure8Concurrency = []int{1, 2, 4, 8}

// Figure8 runs the micro-benchmark: each concurrent "application enclave"
// hammers SL-Local with license-check requests for window long; every
// granted token counts as TokenBatch allocations served.
func Figure8(window time.Duration) (*Figure8Result, error) {
	if window <= 0 {
		window = 200 * time.Millisecond
	}
	res := &Figure8Result{Window: window}
	for _, batch := range []int{1, 10} {
		for _, same := range []bool{true, false} {
			for _, n := range Figure8Concurrency {
				p, err := figure8Point(n, same, batch, window)
				if err != nil {
					return nil, err
				}
				res.Points = append(res.Points, p)
			}
		}
	}
	return res, nil
}

func figure8Point(enclaves int, sameLease bool, batch int, window time.Duration) (Figure8Point, error) {
	sys, err := core.NewSystem(core.Config{
		MachineName: "fig8", EPCBytes: 16 << 20, Local: sllocal.Config{TokenBatch: batch},
	})
	if err != nil {
		return Figure8Point{}, err
	}
	// A giant pool so renewals never dominate the micro-benchmark.
	licenses := make([]string, enclaves)
	for i := range licenses {
		if sameLease {
			licenses[i] = "fig8-shared"
		} else {
			licenses[i] = fmt.Sprintf("fig8-%d", i)
		}
	}
	registered := make(map[string]bool, enclaves)
	for _, lic := range licenses {
		if !registered[lic] {
			if err := sys.RegisterLicense(lic, lease.CountBased, 1<<50); err != nil {
				return Figure8Point{}, err
			}
			registered[lic] = true
		}
	}
	svc := sys.Local()

	// Measure through the same metrics the live daemons export: the
	// allocation count is the delta of sllocal_tokens_issued_total over
	// the window, read via the obs snapshot-diff probe.
	reg := obs.NewRegistry()
	svc.ExposeMetrics(reg, nil)
	probe := NewMetricsProbe(reg)

	apps := make([]*sgx.Enclave, enclaves)
	for i := range apps {
		apps[i], err = sys.Machine().CreateEnclave(fmt.Sprintf("app-%d", i), []byte("fig8-app"), 0)
		if err != nil {
			return Figure8Point{}, err
		}
	}

	var firstErr atomic.Value
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for i := 0; i < enclaves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if _, err := svc.RequestToken(apps[i], licenses[i]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return Figure8Point{}, fmt.Errorf("harness: figure8 worker: %w", err)
	}
	total := int64(probe.Get("sllocal_tokens_issued_total", map[string]string{"machine": "fig8"}))
	return Figure8Point{
		Enclaves:    enclaves,
		SameLease:   sameLease,
		TokenBatch:  batch,
		Allocations: total,
		Throughput:  float64(total) / window.Seconds(),
	}, nil
}

// BatchingSpeedup returns the mean throughput ratio batch-10 / batch-1
// across matching configurations (the paper reports ≈10×).
func (r *Figure8Result) BatchingSpeedup() float64 {
	type key struct {
		n    int
		same bool
	}
	single := make(map[key]float64)
	batched := make(map[key]float64)
	for _, p := range r.Points {
		k := key{p.Enclaves, p.SameLease}
		switch p.TokenBatch {
		case 1:
			single[k] = p.Throughput
		case 10:
			batched[k] = p.Throughput
		}
	}
	var sum float64
	var count int
	for k, s := range single {
		if b, ok := batched[k]; ok && s > 0 {
			sum += b / s
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// Render prints the figure's series as a table.
func (r *Figure8Result) Render() string {
	header := []string{"Enclaves", "Lease", "Tokens/attest", "Allocations", "Alloc/s"}
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		mode := "different"
		if p.SameLease {
			mode = "same"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Enclaves),
			mode,
			fmt.Sprintf("%d", p.TokenBatch),
			fmtCount(p.Allocations),
			fmtCount(int64(p.Throughput)),
		})
	}
	out := renderTable(fmt.Sprintf("Figure 8: lease-allocation throughput (%v window)", r.Window), header, rows)
	out += fmt.Sprintf("\nMean batching speedup (10 tokens/attestation): %.1f× (paper: ≈10×)\n", r.BatchingSpeedup())
	return out
}
