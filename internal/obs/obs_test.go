package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "help")
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	// Counters never go down or accept negatives.
	c.Add(-5)
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter after Add(-5) = %d, want unchanged", got)
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test_gauge", "help")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge after balanced adds = %v, want 2.5", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_latency", "help", []float64{0.1, 1, 10})
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(0.05) // below first bound
				h.Observe(5)    // third bucket
				h.Observe(100)  // overflow (+Inf)
			}
		}(i)
	}
	wg.Wait()
	if got, want := h.Count(), int64(goroutines*perG*3); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	wantSum := float64(goroutines*perG) * (0.05 + 5 + 100)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %v, want ~%v", got, wantSum)
	}
	per := int64(goroutines * perG)
	for i, want := range []int64{per, 0, per, per} {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestVecChildrenAndNilSafety(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("rpcs_total", "help", "type")
	v.With("renew").Add(3)
	v.With("init").Inc()
	if got := v.With("renew").Value(); got != 3 {
		t.Fatalf("renew = %d, want 3", got)
	}
	if got := v.With("init").Value(); got != 1 {
		t.Fatalf("init = %d, want 1", got)
	}

	// Nil receivers are inert everywhere.
	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram
	var nilCV *CounterVec
	var nilGV *GaugeVec
	var nilHV *HistogramVec
	nilC.Inc()
	nilG.Set(1)
	nilH.Observe(1)
	nilCV.With("x").Inc()
	nilGV.With("x").Add(1)
	nilHV.With("x").Observe(1)
	if nilC.Value() != 0 || nilG.Value() != 0 || nilH.Count() != 0 {
		t.Fatal("nil metrics reported values")
	}
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "help", []float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	for _, v := range []float64{0.5, 1.5, 3, 9} {
		h.Observe(v)
	}
	// rank 2 of 4 lands at the top of the (1,2] bucket.
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	// rank 3 exhausts the (2,4] bucket.
	if got := h.Quantile(0.75); got != 4 {
		t.Errorf("p75 = %v, want 4", got)
	}
	// The +Inf observation clamps to the highest finite bound.
	if got := h.Quantile(0.99); got != 4 {
		t.Errorf("p99 = %v, want clamp to 4", got)
	}
	// Interpolation inside the first bucket (lower edge 0).
	if got := h.Quantile(0.25); got != 1 {
		t.Errorf("p25 = %v, want 1", got)
	}
	// Out-of-range q clamps rather than panicking.
	if h.Quantile(-3) != h.Quantile(0) || h.Quantile(7) != h.Quantile(1) {
		t.Error("out-of-range q not clamped")
	}
	var nh *Histogram
	if nh.Quantile(0.9) != 0 {
		t.Error("nil histogram quantile != 0")
	}
}

func TestPrometheusExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("renewals_total", "Renewals granted.").Add(7)
	reg.GaugeVec("pool_units", "Pool state.", "license").With("demo").Set(93)
	h := reg.Histogram("latency_seconds", "Latency.", []float64{0.5, 2})
	h.Observe(0.1)
	h.Observe(1)
	h.Observe(9)
	reg.CounterFunc("cycles_total", "Clock.", map[string]string{"machine": "m1"},
		func() float64 { return 1234 })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP renewals_total Renewals granted.
# TYPE renewals_total counter
renewals_total 7
# HELP pool_units Pool state.
# TYPE pool_units gauge
pool_units{license="demo"} 93
# HELP latency_seconds Latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.5"} 1
latency_seconds_bucket{le="2"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 10.1
latency_seconds_count 3
# HELP latency_seconds_p50 Scrape-time p50 estimate from latency_seconds buckets.
# TYPE latency_seconds_p50 gauge
latency_seconds_p50 1.25
# HELP latency_seconds_p95 Scrape-time p95 estimate from latency_seconds buckets.
# TYPE latency_seconds_p95 gauge
latency_seconds_p95 2
# HELP latency_seconds_p99 Scrape-time p99 estimate from latency_seconds buckets.
# TYPE latency_seconds_p99 gauge
latency_seconds_p99 2
# HELP cycles_total Clock.
# TYPE cycles_total counter
cycles_total{machine="m1"} 1234
`
	if b.String() != want {
		t.Fatalf("exposition mismatch\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestSnapshotDeltaAndKey(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterVec("ops_total", "help", "kind")
	c.With("read").Add(10)
	h := reg.Histogram("lat", "help", nil)
	h.Observe(0.25)

	before := reg.Snapshot()
	c.With("read").Add(5)
	c.With("write").Inc()
	h.Observe(0.75)
	delta := reg.Snapshot().Delta(before)

	if got := delta.Get("ops_total", map[string]string{"kind": "read"}); got != 5 {
		t.Fatalf("read delta = %v, want 5", got)
	}
	if got := delta.Get("ops_total", map[string]string{"kind": "write"}); got != 1 {
		t.Fatalf("write delta = %v, want 1", got)
	}
	if got := delta.Get("lat_count", nil); got != 1 {
		t.Fatalf("lat_count delta = %v, want 1", got)
	}
	if got := delta.Get("lat_sum", nil); got != 0.75 {
		t.Fatalf("lat_sum delta = %v, want 0.75", got)
	}
	if k := Key("a", map[string]string{"z": "1", "a": "2"}); k != `a{a="2",z="1"}` {
		t.Fatalf("Key = %q", k)
	}
}

func TestFuncMetricReRegisterReplaces(t *testing.T) {
	reg := NewRegistry()
	lbl := map[string]string{"machine": "m"}
	reg.GaugeFunc("v", "help", lbl, func() float64 { return 1 })
	reg.GaugeFunc("v", "help", lbl, func() float64 { return 2 })
	if got := reg.Snapshot().Get("v", lbl); got != 2 {
		t.Fatalf("func metric = %v, want the replacement's 2", got)
	}
}

// TestReRegisterSchemaMismatchPanics: a family's kind and label names are
// fixed by its first registration. Re-registering under the same schema
// reuses the family (a restarted component re-exposing itself); a
// different schema panics with the name and both schemas instead of
// adding children whose values do not line up with the label names.
func TestReRegisterSchemaMismatchPanics(t *testing.T) {
	m := map[string]string{"machine": "m"}
	ms := map[string]string{"machine": "m", "shard": "1"}
	one := func() float64 { return 1 }
	for _, tc := range []struct {
		name   string
		first  func(*Registry)
		second func(*Registry)
		panic  string // "" = no panic
	}{
		{"counter to gauge",
			func(r *Registry) { r.CounterFunc("x", "h", m, one) },
			func(r *Registry) { r.GaugeFunc("x", "h", m, one) },
			`obs: metric "x" registered as counter{machine}, re-registered as gauge{machine}`},
		{"{machine} to {machine,shard}",
			func(r *Registry) { r.GaugeFunc("x", "h", m, one) },
			func(r *Registry) { r.GaugeFunc("x", "h", ms, one) },
			`obs: metric "x" registered as gauge{machine}, re-registered as gauge{machine,shard}`},
		{"same func schema",
			func(r *Registry) { r.GaugeFunc("x", "h", ms, one) },
			func(r *Registry) { r.GaugeFunc("x", "h", ms, one) },
			""},
		{"same vec schema",
			func(r *Registry) { r.CounterVec("x", "h", "machine").With("m").Inc() },
			func(r *Registry) { r.CounterVec("x", "h", "machine").With("m").Inc() },
			""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			tc.first(reg)
			var got string
			func() {
				defer func() {
					if p := recover(); p != nil {
						got = fmt.Sprint(p)
					}
				}()
				tc.second(reg)
			}()
			if got != tc.panic {
				t.Fatalf("re-registration panic = %q, want %q", got, tc.panic)
			}
		})
	}
}
