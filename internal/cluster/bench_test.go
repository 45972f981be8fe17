package cluster

import (
	"fmt"
	"testing"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/store"
	"repro/internal/wire"
)

// renewalsPerBenchLicense bounds how many renewals each benchmark
// license absorbs before a fresh one is provisioned outside the timer:
// Algorithm 1's grants are proportional to the remaining pool, so a lone
// client drains any budget in a few renewals — that is the licensing
// model, not a benchmark artifact.
const renewalsPerBenchLicense = 4

// benchCluster stands a cluster up for benchmarking: SyncOff keeps the
// measured path free of fsync latency (the same floor the cluster
// experiment in the harness uses), so the numbers are stable enough for
// the CI regression gate. Renewal throughput and latency are not measured
// here: `go run ./bench` drives the real path end to end.
func benchCluster(b *testing.B, shards int) *Cluster {
	b.Helper()
	key, err := seccrypto.KeyFromBytes([]byte("0123456789abcdef"))
	if err != nil {
		b.Fatalf("KeyFromBytes: %v", err)
	}
	c, err := New(Options{
		Shards:   shards,
		Dir:      b.TempDir(),
		SealKey:  key,
		SyncMode: store.SyncOff,
	})
	if err != nil {
		b.Fatalf("cluster.New: %v", err)
	}
	b.Cleanup(func() {
		if err := c.Close(); err != nil {
			b.Errorf("Close: %v", err)
		}
	})
	return c
}

// provision registers a fresh license on the wanted shard and inits a
// client for it, returning both IDs.
func provision(b *testing.B, c *Cluster, shard, seq int) (lic, slid string) {
	b.Helper()
	lic = licenseOnShard(c, shard, fmt.Sprintf("bench-%d", seq))
	if err := c.RegisterLicense(lic, lease.CountBased, 1<<30); err != nil {
		b.Fatalf("RegisterLicense: %v", err)
	}
	init, err := c.Leader(shard).Remote().InitClient("", attest.Quote{}, nil)
	if err != nil {
		b.Fatalf("InitClient: %v", err)
	}
	return lic, init.SLID
}

// BenchmarkReplicationBatch measures shipping and applying one WAL pull:
// the leader tails its own log over the wire — the unit of work behind
// the cluster_repl_lag_bytes metric.
func BenchmarkReplicationBatch(b *testing.B) {
	c := benchCluster(b, 1)
	for seq := 0; seq < 32; seq++ {
		lic, slid := provision(b, c, 0, seq)
		for r := 0; r < renewalsPerBenchLicense; r++ {
			if _, err := c.Leader(0).Remote().RenewLease(slid, lic); err != nil {
				b.Fatalf("RenewLease: %v", err)
			}
		}
	}
	client, err := wire.Dial(c.Leader(0).Addr(), ratls.Insecure())
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.ReplPull(0, 0, 0)
		if err != nil {
			b.Fatalf("ReplPull: %v", err)
		}
		if len(resp.Records) == 0 && len(resp.Snapshot) == 0 {
			b.Fatal("empty replication batch")
		}
	}
}
