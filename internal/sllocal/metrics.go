package sllocal

import (
	"repro/internal/leasetree"
	"repro/internal/obs"
)

// svcMetrics holds SL-Local's active metrics. All fields are nil until
// ExposeMetrics runs; the record sites use obs's nil-safe methods, so an
// un-instrumented service pays nothing. tracer may be nil (spans no-op).
type svcMetrics struct {
	requestLatency *obs.Histogram
	renewLatency   *obs.Histogram
	tracer         *obs.Tracer
}

// ExposeMetrics registers SL-Local's counters and latency histograms with
// an obs registry, labeled by machine name. Counter-style stats are
// exported as scrape-time callbacks over the existing Stats fields; the
// two latency histograms record actively on the request and renewal paths.
//
// Metric inventory (all labeled {machine=<name>}):
//
//	sllocal_requests_total, sllocal_tokens_issued_total
//	sllocal_local_attests_total
//	sllocal_renewals_total, sllocal_renewal_failures_total
//	sllocal_denials_total
//	sllocal_token_batch_hit_rate          tokens issued per local attestation
//	sllocal_tree_footprint_bytes
//	sllocal_tree_commits_total, sllocal_tree_restores_total, sllocal_tree_evictions_total
//	sllocal_request_latency_seconds       RequestToken wall time (histogram)
//	sllocal_renew_latency_seconds         SL-Remote renewal wall time (histogram)
//
// When tr is non-nil the service records one span per SL-Remote operation
// (sllocal.init, sllocal.renew, sllocal.escrow); with a wire.Client remote
// the RPC span nests under it and carries the TraceID to the server.
func (s *Service) ExposeMetrics(reg *obs.Registry, tr *obs.Tracer) {
	if reg == nil {
		return
	}
	lbl := map[string]string{"machine": s.deps.Machine.Name()}
	stat := func(name, help string, fn func(Stats) int64) {
		reg.CounterFunc(name, help, lbl, func() float64 { return float64(fn(s.Stats())) })
	}
	stat("sllocal_requests_total", "License-check requests served.",
		func(st Stats) int64 { return st.Requests })
	stat("sllocal_tokens_issued_total", "Execution grants issued.",
		func(st Stats) int64 { return st.TokensIssued })
	stat("sllocal_local_attests_total", "Local attestations with requesting enclaves.",
		func(st Stats) int64 { return st.LocalAttests })
	stat("sllocal_renewals_total", "Successful renewals against SL-Remote.",
		func(st Stats) int64 { return st.Renewals })
	stat("sllocal_renewal_failures_total", "Failed renewals (network or policy).",
		func(st Stats) int64 { return st.RenewalFailures })
	stat("sllocal_denials_total", "Requests denied (no valid lease).",
		func(st Stats) int64 { return st.Denials })
	reg.GaugeFunc("sllocal_token_batch_hit_rate",
		"Tokens issued per local attestation (the Section 7.3 batching win).", lbl,
		func() float64 {
			st := s.Stats()
			if st.LocalAttests == 0 {
				return 0
			}
			return float64(st.TokensIssued) / float64(st.LocalAttests)
		})
	reg.GaugeFunc("sllocal_tree_footprint_bytes", "Lease tree trusted-memory footprint.", lbl,
		func() float64 { return float64(s.TreeFootprint()) })
	tree := func(name, help string, fn func() int64) {
		reg.CounterFunc(name, help, lbl, func() float64 { return float64(fn()) })
	}
	tree("sllocal_tree_commits_total", "Lease-tree records/nodes committed to untrusted memory.",
		func() int64 { return s.treeStats().Commits })
	tree("sllocal_tree_restores_total", "Lease-tree records/nodes restored from untrusted memory.",
		func() int64 { return s.treeStats().Restores })
	tree("sllocal_tree_evictions_total", "Budget-driven lease-tree evictions.",
		func() int64 { return s.treeStats().Evictions })

	s.metrics.Store(&svcMetrics{
		requestLatency: reg.Histogram("sllocal_request_latency_seconds",
			"RequestToken wall time.", nil),
		renewLatency: reg.Histogram("sllocal_renew_latency_seconds",
			"SL-Remote renewal round-trip wall time.", nil),
		tracer: tr,
	})
}

// tracerLoad returns the service tracer, nil when un-instrumented.
func (s *Service) tracerLoad() *obs.Tracer {
	if m := s.metrics.Load(); m != nil {
		return m.tracer
	}
	return nil
}

// treeStats sums the current tree's counters onto those of the trees
// earlier incarnations left behind, so the exported counters never fall.
func (s *Service) treeStats() leasetree.TreeStats {
	s.mu.Lock()
	tr, st := s.tree, s.treeBase
	s.mu.Unlock()
	if tr != nil {
		st = addTreeStats(st, tr.Stats())
	}
	return st
}

func addTreeStats(a, b leasetree.TreeStats) leasetree.TreeStats {
	return leasetree.TreeStats{
		Commits:   a.Commits + b.Commits,
		Restores:  a.Restores + b.Restores,
		Evictions: a.Evictions + b.Evictions,
	}
}
