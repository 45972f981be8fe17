package cluster

import (
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/store"
)

// storeMetrics registers the store metric family with the bundle's
// registry and returns the handle for store.Options.Metrics. An
// unobserved node (nil bundle) opens its store uninstrumented.
func storeMetrics(o *fleet.NodeObs) *store.Metrics {
	if o == nil {
		return nil
	}
	return store.ExposeMetrics(o.Registry)
}

// flightRec returns the bundle's event ring, nil when unobserved (a nil
// *obs.Tracer swallows Mark calls for free).
func flightRec(o *fleet.NodeObs) *obs.Tracer {
	if o == nil {
		return nil
	}
	return o.Flight
}

// EmitProbeTimeout marks the event that opens every failover
// timeline: the leader went silent past the detection threshold. Both
// Cluster.FailOver (where the "probe" is the harness deciding to kill)
// and the sl-remote daemon's real liveness probe loop report through
// this one helper, keeping the event kind's emission site unique.
func EmitProbeTimeout(rec *obs.Tracer, shard int, leader string, silentFor time.Duration) {
	rec.Mark("failover.probe_timeout", "shard", strconv.Itoa(shard), "leader", leader, "silent_for", silentFor.String())
}
