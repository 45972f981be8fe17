package fleet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// snapshots for the golden merge: two shard leaders with overlapping
// counter/gauge/histogram families plus a per-license family that must be
// re-keyed, and one structurally incompatible family.
func goldenNodes() map[string][]obs.ExportFamily {
	return map[string][]obs.ExportFamily{
		"shard0-n0": {
			{
				Name: "slremote_renewals_total", Help: "Granted renewals.", Kind: "counter",
				Children: []obs.ExportChild{{Value: 100}},
			},
			{
				Name: "cluster_shard_epoch", Kind: "gauge",
				LabelNames: []string{"shard"},
				Children:   []obs.ExportChild{{Labels: []string{"0"}, Value: 1}},
			},
			{
				Name: "cluster_repl_lag_bytes", Kind: "gauge",
				LabelNames: []string{"shard"},
				Children:   []obs.ExportChild{{Labels: []string{"0"}, Value: 10}},
			},
			{
				Name: "wire_rpc_latency_seconds", Kind: "histogram",
				Bounds: []float64{0.01, 0.1, 1},
				Children: []obs.ExportChild{
					{Buckets: []int64{90, 10, 0, 0}, Sum: 1.45, Count: 100},
				},
			},
			{
				Name: "slremote_license_units", Kind: "gauge",
				LabelNames: []string{"license"},
				Children:   []obs.ExportChild{{Labels: []string{"lic-a"}, Value: 500}},
			},
			{
				Name: "mismatched_family", Kind: "counter",
				Children: []obs.ExportChild{{Value: 1}},
			},
		},
		"shard1-n0": {
			{
				Name: "slremote_renewals_total", Help: "Granted renewals.", Kind: "counter",
				Children: []obs.ExportChild{{Value: 40}},
			},
			{
				Name: "cluster_shard_epoch", Kind: "gauge",
				LabelNames: []string{"shard"},
				// The same shard at a newer epoch (this node heard about the
				// failover): Max must win, not 1+3.
				Children: []obs.ExportChild{
					{Labels: []string{"0"}, Value: 3},
					{Labels: []string{"1"}, Value: 1},
				},
			},
			{
				Name: "cluster_repl_lag_bytes", Kind: "gauge",
				LabelNames: []string{"shard"},
				Children:   []obs.ExportChild{{Labels: []string{"1"}, Value: 7}},
			},
			{
				Name: "wire_rpc_latency_seconds", Kind: "histogram",
				Bounds: []float64{0.01, 0.1, 1},
				Children: []obs.ExportChild{
					{Buckets: []int64{0, 0, 95, 5}, Sum: 60, Count: 100},
				},
			},
			{
				Name: "slremote_license_units", Kind: "gauge",
				LabelNames: []string{"license"},
				// Same license as shard0-n0: after a failover both nodes can
				// report lic-a, so the series must be re-keyed, not summed.
				Children: []obs.ExportChild{{Labels: []string{"lic-a"}, Value: 450}},
			},
			{
				Name: "mismatched_family", Kind: "gauge", // kind conflict: dropped
				Children: []obs.ExportChild{{Value: 9}},
			},
		},
	}
}

func findFamily(t *testing.T, fams []obs.ExportFamily, name string) obs.ExportFamily {
	t.Helper()
	for _, f := range fams {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("family %q missing from merge (have %d families)", name, len(fams))
	return obs.ExportFamily{}
}

func TestMergeSnapshotsRules(t *testing.T) {
	res := MergeSnapshots(goldenNodes(), MergeOptions{})

	// Counters sum across nodes.
	if got := findFamily(t, res.Families, "slremote_renewals_total").Children[0].Value; got != 140 {
		t.Errorf("counter sum = %v, want 140", got)
	}

	// Epoch gauge follows the Max rule per shard label.
	epoch := findFamily(t, res.Families, "cluster_shard_epoch")
	byShard := map[string]float64{}
	for _, c := range epoch.Children {
		byShard[c.Labels[0]] = c.Value
	}
	if byShard["0"] != 3 || byShard["1"] != 1 {
		t.Errorf("epoch merge = %v, want shard0=3 (max, not sum) shard1=1", byShard)
	}

	// Default gauges sum; disjoint label sets just union.
	lag := findFamily(t, res.Families, "cluster_repl_lag_bytes")
	if len(lag.Children) != 2 {
		t.Errorf("lag children = %+v, want one per shard", lag.Children)
	}

	// Histograms merge bucket-wise so fleet quantiles come from real
	// counts: 200 observations, rank(p99)=198 falls in the third bucket
	// (90+10+95=195 < 198 ≤ 200 at bound 1.0 via the overflow clamp path).
	hist := findFamily(t, res.Families, "wire_rpc_latency_seconds")
	c := hist.Children[0]
	wantBuckets := []int64{90, 10, 95, 5}
	for i, b := range wantBuckets {
		if c.Buckets[i] != b {
			t.Fatalf("merged buckets = %v, want %v", c.Buckets, wantBuckets)
		}
	}
	if c.Count != 200 || c.Sum != 61.45 {
		t.Errorf("merged sum/count = %v/%v, want 61.45/200", c.Sum, c.Count)
	}
	p99 := obs.BucketQuantile(hist.Bounds, c.Buckets, 0.99)
	if p99 < 0.1 || p99 > 1 {
		t.Errorf("fleet p99 = %v, want within (0.1, 1] from merged buckets", p99)
	}
	// Averaging the per-node p99s instead would sit near 0.55; the real
	// fleet p99 from merged counts is pinned by the third bucket.
	if want := obs.BucketQuantile(hist.Bounds, []int64{90, 10, 95, 5}, 0.99); p99 != want {
		t.Errorf("p99 = %v, want recomputed %v", p99, want)
	}

	// Per-license series are re-keyed by node, never summed.
	lic := findFamily(t, res.Families, "slremote_license_units")
	if want := []string{"license", "node"}; len(lic.LabelNames) != 2 || lic.LabelNames[1] != want[1] {
		t.Fatalf("re-keyed label names = %v, want %v", lic.LabelNames, want)
	}
	if len(lic.Children) != 2 {
		t.Fatalf("re-keyed children = %+v, want 2 (one per node)", lic.Children)
	}
	byNode := map[string]float64{}
	for _, c := range lic.Children {
		if c.Labels[0] != "lic-a" {
			t.Fatalf("re-keyed labels = %v", c.Labels)
		}
		byNode[c.Labels[1]] = c.Value
	}
	if byNode["shard0-n0"] != 500 || byNode["shard1-n0"] != 450 {
		t.Errorf("re-keyed values = %v", byNode)
	}

	// The kind-conflicting family keeps the first node's shape and counts
	// the other's contribution as a conflict.
	if got := res.Conflicts["mismatched_family"]; got != 1 {
		t.Errorf("conflicts = %v, want mismatched_family:1", res.Conflicts)
	}
	if got := findFamily(t, res.Families, "mismatched_family"); got.Kind != "counter" || got.Children[0].Value != 1 {
		t.Errorf("conflicting family merged anyway: %+v", got)
	}
}

func TestMergeOptionsOverrides(t *testing.T) {
	nodes := map[string][]obs.ExportFamily{
		"a": {{Name: "custom_gauge", Kind: "gauge", Children: []obs.ExportChild{{Value: 5}}}},
		"b": {{Name: "custom_gauge", Kind: "gauge", Children: []obs.ExportChild{{Value: 3}}}},
	}
	res := MergeSnapshots(nodes, MergeOptions{GaugeRules: map[string]GaugeRule{"custom_gauge": RuleMin}})
	if got := res.Families[0].Children[0].Value; got != 3 {
		t.Errorf("RuleMin override: got %v, want 3", got)
	}

	// An explicit empty RekeyLabels disables re-keying: the license series
	// now merge under the gauge rule.
	lic := map[string][]obs.ExportFamily{
		"a": {{Name: "slremote_license_units", Kind: "gauge", LabelNames: []string{"license"},
			Children: []obs.ExportChild{{Labels: []string{"l"}, Value: 2}}}},
		"b": {{Name: "slremote_license_units", Kind: "gauge", LabelNames: []string{"license"},
			Children: []obs.ExportChild{{Labels: []string{"l"}, Value: 3}}}},
	}
	res = MergeSnapshots(lic, MergeOptions{RekeyLabels: []string{}})
	f := res.Families[0]
	if len(f.LabelNames) != 1 || len(f.Children) != 1 || f.Children[0].Value != 5 {
		t.Errorf("re-keying not disabled: %+v", f)
	}
}

// TestMergeGoldenExposition pins the merged Prometheus rendering end to
// end: rules applied, quantiles recomputed from merged buckets, stable
// ordering.
func TestMergeGoldenExposition(t *testing.T) {
	nodes := map[string][]obs.ExportFamily{
		"n1": {
			{Name: "demo_total", Help: "Demo counter.", Kind: "counter",
				Children: []obs.ExportChild{{Value: 2}}},
			{Name: "demo_seconds", Kind: "histogram", Bounds: []float64{1, 2},
				Children: []obs.ExportChild{{Buckets: []int64{4, 0, 0}, Sum: 2, Count: 4}}},
		},
		"n2": {
			{Name: "demo_total", Help: "Demo counter.", Kind: "counter",
				Children: []obs.ExportChild{{Value: 3}}},
			{Name: "demo_seconds", Kind: "histogram", Bounds: []float64{1, 2},
				Children: []obs.ExportChild{{Buckets: []int64{0, 4, 0}, Sum: 6, Count: 4}}},
		},
	}
	res := MergeSnapshots(nodes, MergeOptions{})
	var b bytes.Buffer
	if err := obs.WriteFamiliesPrometheus(&b, res.Families); err != nil {
		t.Fatalf("WriteFamiliesPrometheus: %v", err)
	}
	want := `# TYPE demo_seconds histogram
demo_seconds_bucket{le="1"} 4
demo_seconds_bucket{le="2"} 8
demo_seconds_bucket{le="+Inf"} 8
demo_seconds_sum 8
demo_seconds_count 8
# HELP demo_seconds_p50 Scrape-time p50 estimate from demo_seconds buckets.
# TYPE demo_seconds_p50 gauge
demo_seconds_p50 1
# HELP demo_seconds_p95 Scrape-time p95 estimate from demo_seconds buckets.
# TYPE demo_seconds_p95 gauge
demo_seconds_p95 1.9
# HELP demo_seconds_p99 Scrape-time p99 estimate from demo_seconds buckets.
# TYPE demo_seconds_p99 gauge
demo_seconds_p99 1.98
# HELP demo_total Demo counter.
# TYPE demo_total counter
demo_total 5
`
	if got := b.String(); got != want {
		t.Errorf("merged exposition:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMergeDropsMalformedChildren: an export arrives from another process,
// so a child whose label or bucket count does not match its family is
// dropped and counted, never adopted as the fleet's shape.
func TestMergeDropsMalformedChildren(t *testing.T) {
	hist := func(labels []string, buckets ...int64) obs.ExportFamily {
		return obs.ExportFamily{Name: "h_seconds", Kind: "histogram", LabelNames: []string{"op"},
			Bounds: []float64{1, 2, 3}, Children: []obs.ExportChild{{Labels: labels, Buckets: buckets, Sum: 1, Count: 10}}}
	}
	good := hist([]string{"x"}, 1, 2, 3, 4)
	for _, tc := range []struct {
		name string
		a    obs.ExportFamily
	}{
		{"too few buckets", hist([]string{"x"}, 5, 5)},
		{"too many buckets", hist([]string{"x"}, 1, 1, 1, 1, 6)},
		{"too few labels", hist(nil, 1, 2, 3, 4)},
		{"too many labels", hist([]string{"x", "y"}, 1, 2, 3, 4)},
	} {
		res := MergeSnapshots(map[string][]obs.ExportFamily{"a": {tc.a}, "b": {good}}, MergeOptions{})
		f := findFamily(t, res.Families, "h_seconds")
		if len(f.Children) != 1 || len(f.Children[0].Buckets) != 4 || f.Children[0].Buckets[3] != 4 {
			t.Errorf("%s: merged children = %+v, want only b's well-formed child", tc.name, f.Children)
		}
		if res.Conflicts["h_seconds"] != 1 {
			t.Errorf("%s: conflicts = %v, want h_seconds: 1", tc.name, res.Conflicts)
		}
	}

	// A well-formed export is never dropped, an empty label value included.
	reg := obs.NewRegistry()
	reg.CounterVec("empty_label_total", "Empty label value.", "op").With("").Inc()
	res := MergeSnapshots(map[string][]obs.ExportFamily{"a": reg.Export()}, MergeOptions{})
	if f := findFamily(t, res.Families, "empty_label_total"); len(f.Children) != 1 || len(res.Conflicts) != 0 {
		t.Errorf("registry export: children %+v, conflicts %v", f.Children, res.Conflicts)
	}
}

// TestIntegralValuesPrintExactly: every integral value below 2^53 prints
// as an integer, the same on a node's /metrics and through the fleet.
func TestIntegralValuesPrintExactly(t *testing.T) {
	for _, v := range []int64{1e15 + 1, 1<<52 + 1} {
		reg := obs.NewRegistry()
		reg.Counter("big_total", "Big.").Add(v)
		want := fmt.Sprintf("big_total %d\n", v)
		var node, merged bytes.Buffer
		if err := reg.WritePrometheus(&node); err != nil {
			t.Fatal(err)
		}
		res := MergeSnapshots(map[string][]obs.ExportFamily{"a": reg.Export()}, MergeOptions{})
		if err := obs.WriteFamiliesPrometheus(&merged, res.Families); err != nil {
			t.Fatal(err)
		}
		for view, text := range map[string]string{"node": node.String(), "fleet": merged.String()} {
			if !strings.Contains(text, want) {
				t.Errorf("%s render of %d:\n%s\nwant a line %q", view, v, text, want)
			}
		}
	}
}
