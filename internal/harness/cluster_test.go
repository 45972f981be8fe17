package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestClusterBenchSmall(t *testing.T) {
	obsDump := t.TempDir()
	res, err := ClusterBench(ClusterBenchOptions{
		Clients:           2000,
		Shards:            2,
		ClientsPerLicense: 20,
		RenewalsPerClient: 2,
		Kills:             1,
		Seed:              7,
		Dir:               t.TempDir(),
		Observe:           true,
		ObsDump:           obsDump,
	})
	if err != nil {
		t.Fatalf("ClusterBench: %v", err)
	}
	if res.Renewals != 4000 {
		t.Fatalf("Renewals = %d, want 4000 (2000 clients × 2)", res.Renewals)
	}
	var perShard int64
	var failovers int
	for _, s := range res.PerShard {
		perShard += s.Renewals
		failovers += s.Failovers
		if s.Denials > s.Renewals {
			t.Fatalf("shard %d denied %d of %d renewals", s.Shard, s.Denials, s.Renewals)
		}
	}
	if perShard != res.Renewals {
		t.Fatalf("per-shard renewals %d != total %d", perShard, res.Renewals)
	}
	if failovers != 1 {
		t.Fatalf("failovers = %d, want 1", failovers)
	}
	if !res.AuditVerified {
		t.Fatal("audit chains not verified despite kills")
	}

	// The kill must be visible through the fleet aggregator: a failover
	// timeline ending in an epoch bump, one node down, and the artifact
	// files written.
	if len(res.Timeline) == 0 {
		t.Fatal("Observe run produced no failover timeline despite a kill")
	}
	kinds := map[string]bool{}
	for _, ev := range res.Timeline {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{"failover.probe_timeout", "failover.promote", "cluster.epoch_bump"} {
		if !kinds[k] {
			t.Fatalf("timeline missing %s: %+v", k, res.Timeline)
		}
	}
	var down int
	for _, n := range res.FleetNodes {
		if !n.Up {
			down++
		}
	}
	if len(res.FleetNodes) == 0 || down != 1 {
		t.Fatalf("fleet nodes = %d with %d down, want the killed leader down", len(res.FleetNodes), down)
	}
	for _, name := range []string{"metrics.prom", "metrics.json", "flight.json"} {
		b, err := os.ReadFile(filepath.Join(obsDump, name))
		if err != nil || len(b) == 0 {
			t.Fatalf("obs dump artifact %s: err=%v len=%d", name, err, len(b))
		}
	}

	render := res.Render()
	if render == "" {
		t.Fatal("empty render")
	}
	if !strings.Contains(render, "Failover timeline") {
		t.Fatalf("render does not surface the failover timeline:\n%s", render)
	}
}

func TestClusterBenchDeterministicCounts(t *testing.T) {
	run := func() *ClusterBenchResult {
		res, err := ClusterBench(ClusterBenchOptions{
			Clients:           500,
			Shards:            2,
			ClientsPerLicense: 10,
			RenewalsPerClient: 2,
			Seed:              21,
			Dir:               t.TempDir(),
		})
		if err != nil {
			t.Fatalf("ClusterBench: %v", err)
		}
		return res
	}
	a, b := run(), run()
	// Latency and duration vary; the simulated behavior must not.
	if a.Renewals != b.Renewals || a.Denials != b.Denials || a.Consumes != b.Consumes {
		t.Fatalf("same seed, different behavior: %+v vs %+v", a, b)
	}
	for s := range a.PerShard {
		if a.PerShard[s].Renewals != b.PerShard[s].Renewals || a.PerShard[s].Denials != b.PerShard[s].Denials {
			t.Fatalf("shard %d diverged across same-seed runs: %+v vs %+v", s, a.PerShard[s], b.PerShard[s])
		}
	}
}

func TestFleetSeededDeterminism(t *testing.T) {
	clients := []FleetClient{
		{Name: "stable", Health: 0.99, Reliability: 0.95, Weight: 1},
		{Name: "flaky-net", Health: 0.95, Reliability: 0.6, Weight: 1},
		{Name: "crashy", Health: 0.5, Reliability: 0.9, Weight: 1},
	}
	run := func(seed int64) *FleetResult {
		res, err := Fleet(clients, 5, 50_000, seed)
		if err != nil {
			t.Fatalf("Fleet: %v", err)
		}
		return res
	}
	a, b := run(11), run(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different FleetResult:\n %+v\n %+v", a, b)
	}
}
