package main

import (
	"repro/internal/obs"
)

// perLayerMetrics are the trace pass's outputs: one block per module of
// the program, each metric named <module>.<what>. They have no bound;
// README.md says which end-to-end metric each is expected to move.
var perLayerMetrics = []metricDef{
	{name: "slmanager.self_ns_per_op", unit: "ns", better: "lower"},
	{name: "slmanager.token_requests_per_op", unit: "count", better: "lower"},

	{name: "sllocal.token_p50_us", unit: "us", better: "lower"},
	{name: "sllocal.self_us_per_token", unit: "us", better: "lower"},
	{name: "sllocal.renewals_per_token", unit: "count", better: "lower"},
	{name: "sllocal.renew_wait_share", unit: "ratio", better: "lower"},

	{name: "attest.local_attest_ns", unit: "ns", better: "lower"},

	{name: "leasetree.update_ns", unit: "ns", better: "lower"},
	{name: "leasetree.evictions_per_op", unit: "count", better: "lower"},
	{name: "leasetree.restores_per_op", unit: "count", better: "lower"},
	{name: "leasetree.footprint_kb", unit: "KB", better: "lower"},

	{name: "wire.rtt_p50_us", unit: "us", better: "lower"},
	{name: "wire.rtt_mean_us", unit: "us", better: "lower"},
	{name: "wire.rtt_max_ms", unit: "ms", better: "lower"},
	{name: "wire.server_handle_mean_us", unit: "us", better: "lower"},
	{name: "wire.transit_mean_us", unit: "us", better: "lower"},
	{name: "wire.self_us_per_op", unit: "us", better: "lower"},
	{name: "wire.bytes_per_op", unit: "B", better: "lower"},
	{name: "wire.pool_misses", unit: "count", better: "lower"},
	{name: "wire.redirects", unit: "count", better: "lower"},

	{name: "ratls.record_us_per_op", unit: "us", better: "lower"},
	{name: "ratls.cold_handshakes", unit: "count", better: "lower"},
	{name: "ratls.resumed_handshakes", unit: "count", better: "higher"},
	{name: "ratls.handshake_ms", unit: "ms", better: "lower"},
	{name: "ratls.resumed_handshake_ms", unit: "ms", better: "lower"},

	{name: "cluster.repl_lag_bytes_max", unit: "B", better: "lower"},
	{name: "cluster.repl_pulls_per_s", unit: "1/s", better: "lower"},
	{name: "cluster.follower_applied_ratio", unit: "ratio", better: "higher"},

	{name: "slremote.renew_p50_us", unit: "us", better: "lower"},
	{name: "slremote.self_us_per_op", unit: "us", better: "lower"},
	{name: "slremote.batch_size_mean", unit: "count", better: "higher"},
	{name: "slremote.denials", unit: "count", better: "lower"},

	{name: "store.appends_per_op", unit: "count", better: "lower"},
	{name: "store.fsyncs_per_op", unit: "count", better: "lower"},
	{name: "store.fsync_mean_us", unit: "us", better: "lower"},
	{name: "store.append_p50_us", unit: "us", better: "lower"},
	{name: "store.wal_bytes_per_op", unit: "B", better: "lower"},

	{name: "audit.records_per_op", unit: "count", better: "lower"},
	{name: "audit.append_p50_us", unit: "us", better: "lower"},
	{name: "audit.verify_ms", unit: "ms", better: "lower"},

	{name: "obs.overhead_ratio", unit: "ratio", better: "lower"},

	{name: "loadgen.late_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.offered_per_s", unit: "1/s", better: "higher"},

	{name: "runtime.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms_total", unit: "ms", better: "lower"},

	{name: "waterfall.unattributed_us", unit: "us", better: "lower"},
}

// counters is a reading of the program's own public counters: every
// family of a set of obs registries, summed over registries and label
// values. Two readings bracket a window; their difference is what the
// window did.
type counters struct {
	value map[string]float64 // counter and gauge families, children summed
	count map[string]float64 // histogram families: observations
	sum   map[string]float64 // histogram families: sum of observed values
}

// readCounters exports regs. match, when non-nil, filters children by
// family name and label values (for "only type=renew").
func readCounters(regs []*obs.Registry, match func(family string, labels []string) bool) counters {
	c := counters{value: map[string]float64{}, count: map[string]float64{}, sum: map[string]float64{}}
	for _, reg := range regs {
		if reg == nil {
			continue
		}
		for _, fam := range reg.Export() {
			for _, ch := range fam.Children {
				if match != nil && !match(fam.Name, ch.Labels) {
					continue
				}
				if fam.Kind == obs.KindHistogram.String() {
					c.count[fam.Name] += float64(ch.Count)
					c.sum[fam.Name] += ch.Sum
				} else {
					c.value[fam.Name] += ch.Value
				}
			}
		}
	}
	return c
}

// since returns c − earlier, family by family.
func (c counters) since(earlier counters) counters {
	d := counters{value: map[string]float64{}, count: map[string]float64{}, sum: map[string]float64{}}
	for k, v := range c.value {
		d.value[k] = v - earlier.value[k]
	}
	for k, v := range c.count {
		d.count[k] = v - earlier.count[k]
	}
	for k, v := range c.sum {
		d.sum[k] = v - earlier.sum[k]
	}
	return d
}

// histMeanUS is the mean of a seconds-valued histogram family, in µs.
func (c counters) histMeanUS(family string) float64 {
	if c.count[family] == 0 {
		return 0
	}
	return c.sum[family] / c.count[family] * 1e6
}

// onlyRenewRPCs keeps, of the per-type wire families, the renew child:
// the server also handles replication pulls and scrapes.
func onlyRenewRPCs(family string, labels []string) bool {
	switch family {
	case "wire_server_rpc_latency_seconds", "wire_server_rpcs_total", "wire_server_rpc_errors_total":
		return len(labels) == 1 && labels[0] == "renew"
	}
	return true
}

// ratio is a/b, 0 when b is 0 (a layer that did nothing has no ratio).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
