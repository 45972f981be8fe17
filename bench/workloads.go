package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/store"
)

// opKind says what one op of a workload is.
type opKind int

const (
	// opExecute is slmanager.Manager.Execute of a guarded no-op key
	// function: the call an application makes.
	opExecute opKind = iota
	// opRenew is sllocal.RemoteAPI.RenewLease through a wire.Client:
	// the call an SL-Local makes when a local lease runs dry.
	opRenew
)

// workload is one traffic mix. Everything that distinguishes the five
// workloads is a field here; the drivers in loadgen.go branch on loop
// shape and op kind only, never on a workload's name.
type workload struct {
	name string
	why  string
	kind opKind
	// open selects the open loop (seeded Poisson arrivals at rate ops/s,
	// timed from the instant each op was due); otherwise the loop is
	// closed with inflight callers.
	open     bool
	rate     float64
	inflight int
	// queue is how many due arrivals of an open loop may wait for a free
	// caller before one is turned away (and counted as failed).
	queue int
	// timedEvery is the latency sampling stride: sub-microsecond ops are
	// timed 1-in-64 so the timer does not become the workload.
	timedEvery int
	// warmOps is the untimed warm-up round that ends set-up.
	warmOps int
	// capPerSecond bounds the ops a window may run per second of its
	// length. Licenses are provisioned for the cap, so a window that
	// reaches it ends early instead of running a license dry (a denial
	// is cheap and would inflate ops_per_s).
	capPerSecond int
	// ladderInflight is the concurrency the renewal ladder runs at in
	// the trace pass (the open loop has no caller count of its own).
	ladderInflight int
	// ladderHolders is the renew population (SLIDs per shard) the trace
	// pass gives a workload that has none of its own, to run the renewal
	// ladder on.
	ladderHolders int
	// bypassesServer states the prediction that a window of this
	// workload never reaches SL-Remote; the trace pass checks it.
	bypassesServer bool
	stack          stackConfig
}

// stackConfig sizes the system under test for a workload.
type stackConfig struct {
	sync  store.SyncMode
	audit bool
	// slidsPerShard (C) simulated SL-Locals hold every renew license of
	// their shard; Algorithm 1 prices a renewal at TotalGCL/(4·C²).
	slidsPerShard int
	// instances real sllocal.Service instances, each on its own
	// sgx.Machine, dealt round-robin to the shards and sharing their
	// shard's one connection.
	instances int
	// managersPerInstance application enclaves (slmanager.Manager) per
	// instance.
	managersPerInstance int
	// appLicensesPerShard licenses guarded by every instance of a shard
	// (shards without an instance get none).
	appLicensesPerShard int
	// appTotalGCL is each app license's budget. With k instances holding
	// it, a steady renewal grants appTotalGCL/(4·k²) units.
	appTotalGCL int64
	tokenBatch  int
	// budgetFraction of the unevicted lease tree is the instance's
	// MemoryBudget; 0 keeps the paper's 1.6 MB default, under which the
	// trees here never evict.
	budgetFraction float64
}

// Shards and client connections are fixed by the load rules: one
// wire.Client per shard leader, pool size 1.
const shards = 2

// workloads is the benchmark's table. Order is the order of BENCHMARK.json.
var workloads = []workload{
	{
		name:           "check-local",
		why:            "client side does all the work (slmanager, sllocal, resident lease tree, local attestation); wire, ratls, cluster, slremote, store and audit do none",
		kind:           opExecute,
		inflight:       2,
		timedEvery:     64,
		warmOps:        200_000,
		ladderInflight: 2,
		ladderHolders:  64,
		bypassesServer: true,
		stack: stackConfig{
			sync: store.SyncBatched, audit: true,
			instances: 1, managersPerInstance: 2,
			appLicensesPerShard: 64,
			// One holder: the first grant is a quarter of this, far more
			// than any window can spend, so renewals in the window are 0.
			appTotalGCL: 1 << 52,
			tokenBatch:  10,
		},
	},
	{
		name:           "renew-durable",
		why:            "the north-star renewal path with everything on: RA-TLS, batched fsync, followers tailing, audit chain, 16 renewals in flight so the coalescer and group commit have something to batch",
		kind:           opRenew,
		inflight:       16,
		timedEvery:     1,
		warmOps:        2_000,
		capPerSecond:   8_000,
		ladderInflight: 16,
		stack: stackConfig{
			sync: store.SyncBatched, audit: true,
			slidsPerShard: 64,
		},
	},
	{
		name:           "renew-volatile",
		why:            "same layers with no fsync, no audit and no queueing (one renewal per connection), so per-op CPU in the wire codec, RA-TLS records, shard gate and Algorithm 1 is what is left",
		kind:           opRenew,
		inflight:       2,
		timedEvery:     1,
		warmOps:        10_000,
		capPerSecond:   60_000,
		ladderInflight: 2,
		stack: stackConfig{
			sync: store.SyncOff, audit: false,
			slidsPerShard: 64,
		},
	},
	{
		name:     "renew-open",
		why:      "independent SL-Locals arrive on a seeded Poisson schedule at a fixed 800/s, under half of capacity; latency is timed from the due instant, so the queue a slow op leaves behind it counts",
		kind:     opRenew,
		open:     true,
		rate:     800,
		inflight: 256, // in-flight cap
		// A half-second disk stall (100–250 ms ones are seen in about three
		// runs in ten on this box) backs 400 arrivals up; they wait here and
		// drain at the closed-loop rate instead of failing the run.
		queue:          4096,
		timedEvery:     1,
		warmOps:        1_000,
		capPerSecond:   2_000,
		ladderInflight: 8,
		stack: stackConfig{
			sync: store.SyncBatched, audit: true,
			slidsPerShard: 64,
		},
	},
	{
		name:           "e2e-stack",
		why:            "every layer on, composed as deployed: 8 SL-Local instances with evicting lease trees and token batching share the 2 connections to the durable, audited cluster; about 2% of ops renew",
		kind:           opExecute,
		inflight:       2,
		timedEvery:     1,
		warmOps:        10_000,
		capPerSecond:   40_000,
		ladderInflight: 2,
		ladderHolders:  64,
		stack: stackConfig{
			sync: store.SyncBatched, audit: true,
			instances: 8, managersPerInstance: 1,
			appLicensesPerShard: 256,
			// 4 holders per license: a steady grant is 3200/(4·16) = 50
			// units = 5 token batches of 10, so one op in 50 renews.
			appTotalGCL:    3_200,
			tokenBatch:     10,
			budgetFraction: 0.25,
		},
	},
}

// holders is the size of the renew population the workload's renewal
// rungs run on: its own, or the one lent to it for the ladder.
func (w *workload) holders() int {
	if w.stack.slidsPerShard > 0 {
		return w.stack.slidsPerShard
	}
	return w.ladderHolders
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Algorithm 1 grants TotalGCL/(4·C²) units per renewal once C clients
// hold a license, whatever is left of it, and the C joining renewals
// (TotalGCL/(4·k²) for the k-th) have by then taken about 41% of the
// budget. A warmed license therefore survives about 2.36·C² further
// renewals and then runs dry — regardless of TotalGCL. Provisioning
// counts on 2·C² to keep a margin.
func renewalsPerWarmLicense(holders int) int {
	return 2 * holders * holders
}

// renewLicensesPerShard sizes the renew population for a budget of
// renewal ops spread evenly over both shards.
func renewLicensesPerShard(cfg stackConfig, renewBudget int) int {
	if cfg.slidsPerShard == 0 || renewBudget == 0 {
		return 0
	}
	perShard := (renewBudget + shards - 1) / shards
	per := renewalsPerWarmLicense(cfg.slidsPerShard)
	return (perShard + per - 1) / per
}

// rng is splitmix64: tiny, seedable and fast enough to draw per op
// without showing up in a sub-microsecond workload.
type rng uint64

func newRNG(seed int64, stream int) rng {
	r := rng(uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream+1)*0xD1B54A32D192ED03)
	r.next()
	return r
}

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn draws from [0, n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// exp draws an exponential inter-arrival gap with the given mean.
func (r *rng) exp(mean float64) float64 {
	u := (float64(r.next()>>11) + 1) / (1 << 53) // (0, 1]
	return -math.Log(u) * mean
}

// op names one operation by two indices into the stack's populations:
// for opRenew (SLID, license) on the caller's shard; for opExecute
// (instance, key function).
type op struct{ a, b int }

// opGen is one caller's seeded op stream. The program under test only
// ever sees the generated inputs, never the seed.
type opGen struct {
	r      rng
	na, nb int
}

func newOpGen(seed int64, caller, na, nb int) opGen {
	return opGen{r: newRNG(seed, caller), na: na, nb: nb}
}

func (g *opGen) next() op {
	return op{a: g.r.intn(g.na), b: g.r.intn(g.nb)}
}

// streamHash fingerprints the first n ops of every caller's stream for
// a seed: equal seeds must give equal inputs.
func streamHash(seed int64, callers, na, nb, n int) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	for c := 0; c < callers; c++ {
		g := newOpGen(seed, c, na, nb)
		for i := 0; i < n; i++ {
			o := g.next()
			buf[0], buf[1], buf[2], buf[3] = byte(c), byte(c>>8), byte(o.a), byte(o.a>>8)
			buf[4], buf[5], buf[6], buf[7] = byte(o.a>>16), byte(o.b), byte(o.b>>8), byte(o.b>>16)
			_, _ = h.Write(buf[:8]) // hash.Hash.Write never fails
		}
	}
	return h.Sum64()
}
