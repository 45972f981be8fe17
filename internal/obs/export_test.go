package obs

import (
	"bytes"
	"strings"
	"testing"
)

func exportTestRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("exp_checks_total", "Checks.").Add(42)
	reg.GaugeVec("exp_lag_bytes", "Lag.", "shard").With("0").Set(10)
	h := reg.Histogram("exp_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5) // overflow bucket
	return reg
}

func TestExportRoundTrip(t *testing.T) {
	reg := exportTestRegistry()
	fams := reg.Export()

	var b bytes.Buffer
	if err := WriteExport(&b, fams); err != nil {
		t.Fatalf("WriteExport: %v", err)
	}
	got, err := ReadExport(&b)
	if err != nil {
		t.Fatalf("ReadExport: %v", err)
	}
	if len(got) != len(fams) {
		t.Fatalf("round trip lost families: %d vs %d", len(got), len(fams))
	}
	byName := map[string]ExportFamily{}
	for _, f := range got {
		byName[f.Name] = f
	}
	if c := byName["exp_checks_total"].Children[0]; c.Value != 42 {
		t.Errorf("counter value = %v, want 42", c.Value)
	}
	lag := byName["exp_lag_bytes"]
	if len(lag.LabelNames) != 1 || lag.LabelNames[0] != "shard" || lag.Children[0].Labels[0] != "0" {
		t.Errorf("gauge labels lost: %+v", lag)
	}
	hist := byName["exp_latency_seconds"]
	if len(hist.Bounds) != 2 || len(hist.Children[0].Buckets) != 3 {
		t.Fatalf("histogram shape: bounds=%v buckets=%v", hist.Bounds, hist.Children[0].Buckets)
	}
	wantBuckets := []int64{1, 1, 1}
	for i, n := range wantBuckets {
		if hist.Children[0].Buckets[i] != n {
			t.Errorf("bucket %d = %d, want %d (non-cumulative, overflow last)", i, hist.Children[0].Buckets[i], n)
		}
	}
	if hist.Children[0].Count != 3 {
		t.Errorf("count = %d, want 3", hist.Children[0].Count)
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	cases := []struct {
		name   string
		counts []int64
		q      float64
		want   float64
	}{
		{"median interpolates", []int64{10, 10, 0, 0}, 0.5, 1},
		{"upper bucket", []int64{0, 0, 10, 0}, 0.5, 3},
		{"overflow clamps to highest finite bound", []int64{0, 0, 0, 10}, 0.99, 4},
		{"empty", []int64{0, 0, 0, 0}, 0.5, 0},
		{"q over 1 clamps", []int64{10, 0, 0, 0}, 2, 1},
	}
	for _, tc := range cases {
		if got := BucketQuantile(bounds, tc.counts, tc.q); got != tc.want {
			t.Errorf("%s: BucketQuantile(%v, %v) = %v, want %v", tc.name, tc.counts, tc.q, got, tc.want)
		}
	}
	// A length mismatch (wrong exposition) yields 0, never a panic.
	if got := BucketQuantile(bounds, []int64{1, 2}, 0.5); got != 0 {
		t.Errorf("mismatched counts: got %v, want 0", got)
	}
	if got := BucketQuantile(nil, nil, 0.5); got != 0 {
		t.Errorf("empty bounds: got %v, want 0", got)
	}
}

func TestCardinalityGuard(t *testing.T) {
	reg := NewRegistry()
	reg.SetLabelLimit(2)
	vec := reg.CounterVec("guard_total", "Guarded.", "client")
	vec.With("a").Inc()
	vec.With("b").Inc()
	vec.With("c").Inc() // over the cap: collapses into __other__
	vec.With("d").Inc() // joins the same overflow series
	vec.With("a").Inc() // existing series stay addressable

	snap := reg.Snapshot()
	if got := snap.Get("guard_total", map[string]string{"client": "a"}); got != 2 {
		t.Errorf(`guard_total{client="a"} = %v, want 2`, got)
	}
	if got := snap.Get("guard_total", map[string]string{"client": OverflowLabel}); got != 2 {
		t.Errorf(`guard_total{client=%q} = %v, want 2 (c and d collapsed)`, OverflowLabel, got)
	}
	if got := snap.Get("guard_total", map[string]string{"client": "c"}); got != 0 {
		t.Errorf(`guard_total{client="c"} = %v, want 0 (dropped)`, got)
	}
	if got := snap.Get("obs_dropped_label_values_total", map[string]string{"family": "guard_total"}); got != 2 {
		t.Errorf("obs_dropped_label_values_total = %v, want 2", got)
	}

	// Removing the cap admits new series again.
	reg.SetLabelLimit(0)
	vec.With("e").Inc()
	if got := reg.Snapshot().Get("guard_total", map[string]string{"client": "e"}); got != 1 {
		t.Errorf(`after uncapping, guard_total{client="e"} = %v, want 1`, got)
	}
}

func TestCardinalityGuardExposition(t *testing.T) {
	reg := NewRegistry()
	reg.SetLabelLimit(1)
	vec := reg.GaugeVec("guard_gauge", "Guarded.", "slid")
	vec.With("one").Set(1)
	vec.With("two").Set(2)

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, `guard_gauge{slid="__other__"} 2`) {
		t.Errorf("overflow series missing:\n%s", out)
	}
	if !strings.Contains(out, `obs_dropped_label_values_total{family="guard_gauge"} 1`) {
		t.Errorf("drop counter missing:\n%s", out)
	}
}
