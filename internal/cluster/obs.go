package cluster

import (
	"strconv"
	"time"

	"repro/internal/obs/fleet"
	"repro/internal/obs/flight"
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

// flightRec returns the bundle's recorder, nil when unobserved (a nil
// *flight.Recorder swallows Emit calls for free).
func flightRec(o *fleet.NodeObs) *flight.Recorder {
	if o == nil {
		return nil
	}
	return o.Flight
}

// EmitProbeTimeout records the flight event that opens every failover
// timeline: the leader went silent past the detection threshold. Both
// Cluster.FailOver (where the "probe" is the harness deciding to kill)
// and the sl-remote daemon's real liveness probe loop report through
// this one helper, keeping the event kind's emission site unique.
func EmitProbeTimeout(rec *flight.Recorder, shard int, leader string, silentFor time.Duration) {
	rec.Emit("failover.probe_timeout",
		flight.KV{K: "shard", V: strconv.Itoa(shard)},
		flight.KV{K: "leader", V: leader},
		flight.KV{K: "silent_for", V: silentFor.String()})
}
