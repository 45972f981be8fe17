package harness

import (
	"container/heap"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/attest"
	"repro/internal/cluster"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/obs/flight"
	"repro/internal/seccrypto"
	"repro/internal/store"
)

// ClusterBenchOptions sizes the sharded-cluster experiment.
type ClusterBenchOptions struct {
	// Clients is the number of simulated SL-Local clients (default
	// 1,000,000). Clients are event-loop simulated — one virtual-time
	// heap, not a goroutine each — which is what makes a million of them
	// tractable on one machine.
	Clients int
	// Shards is the number of hash ranges / leader servers (default 4).
	Shards int
	// ClientsPerLicense groups clients into license-sharing parties
	// (default 20): Algorithm 1's multi-party scenario, scaled out.
	ClientsPerLicense int
	// RenewalsPerClient is how many renewal events each client fires
	// (default 2).
	RenewalsPerClient int
	// Kills is how many leader kill+failover events are injected at
	// evenly spaced points of the run (0: none). Each kill drains the
	// shard's follower, kills the leader, and promotes the follower; the
	// run continues against the new leader.
	Kills int
	// Seed drives every random choice (event jitter, consume decisions),
	// making runs reproducible: the loop is lock-step, so the same seed
	// replays the same grants and denials event for event.
	Seed int64
	// Dir is the state root (default: a fresh temp dir, removed after).
	Dir string
	// Registry receives cluster_* metrics (nil: none).
	Registry *obs.Registry
	// Observe gives every node its own observability bundle and, at the
	// end of the run, scrapes the whole fleet through an obs/fleet
	// aggregator: the result carries the merged failover timeline and
	// the run fails if the fleet view disagrees with the ground truth.
	Observe bool
	// ObsDump, with Observe, writes the aggregator's output into this
	// directory: metrics.prom (merged Prometheus text), metrics.json
	// (full-fidelity export), and flight.json (the merged event
	// timeline).
	ObsDump string
}

// ShardBenchStats is one shard's share of the run. It counts events, not
// time: the renewals are in-process calls, and `go run ./bench` is where
// renewal throughput and latency are measured.
type ShardBenchStats struct {
	Shard     int
	Licenses  int
	Clients   int
	Renewals  int64
	Denials   int64
	Failovers int
}

// ClusterBenchResult summarizes the cluster experiment.
type ClusterBenchResult struct {
	Clients   int
	Shards    int
	Licenses  int
	Renewals  int64
	Denials   int64
	Consumes  int64
	Kills     int
	SetupTime time.Duration
	RunTime   time.Duration
	PerShard  []ShardBenchStats
	// AuditVerified is set when kills were injected: every shard's audit
	// chain re-verified across leader incarnations.
	AuditVerified bool
	// Timeline is the fleet-merged failover flight events (probe
	// timeouts, drains, promotions, epoch bumps), time-ordered across
	// nodes. Populated only with Observe.
	Timeline []flight.Event
	// FleetNodes is the per-node scrape health at end of run (Observe
	// only): dead leaders show up as down, which is the expected shape.
	FleetNodes []fleet.NodeStatus
}

// clusterEvent is one pending renewal in virtual time. Ordering ties
// break on the client index so the event sequence is a pure function of
// the options.
type clusterEvent struct {
	vt     int64
	client int32
}

type eventHeap []clusterEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].vt != h[j].vt {
		return h[i].vt < h[j].vt
	}
	return h[i].client < h[j].client
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(clusterEvent)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// ClusterBench drives a sharded SL-Remote cluster with an event-loop
// client simulation: every client is a heap entry firing renewal (and
// consume) events against its license's owning shard leader, while each
// shard's follower tails the leader's WAL over the wire in the
// background. With Kills > 0 leaders are killed and failed over mid-run.
// The run fails unless, at the end, lease-unit conservation holds on
// every shard and cluster-wide, and (when kills happened) every audit
// chain verifies.
func ClusterBench(opts ClusterBenchOptions) (*ClusterBenchResult, error) {
	if opts.Clients <= 0 {
		opts.Clients = 1_000_000
	}
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	if opts.ClientsPerLicense <= 0 {
		opts.ClientsPerLicense = 20
	}
	if opts.RenewalsPerClient <= 0 {
		opts.RenewalsPerClient = 2
	}
	dir := opts.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "slcluster-bench-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("cluster-bench-%d", opts.Seed)))
	sealKey, err := seccrypto.KeyFromBytes(sum[:seccrypto.KeySize])
	if err != nil {
		return nil, err
	}

	setupStart := time.Now()
	c, err := cluster.New(cluster.Options{
		Shards:  opts.Shards,
		Dir:     dir,
		SealKey: sealKey,
		// SyncOff is the bench's durability floor: TailSince still serves
		// only store-acknowledged bytes, so replication semantics are the
		// production ones; only fsync latency is elided.
		SyncMode:     store.SyncOff,
		PullInterval: 20 * time.Millisecond,
		Audit:        opts.Kills > 0,
		Registry:     opts.Registry,
		Observe:      opts.Observe,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// One license per ClientsPerLicense-sized party; budget sized so two
	// renewals per client mostly succeed (denials are legal and counted).
	nLicenses := opts.Clients / opts.ClientsPerLicense
	if nLicenses < opts.Shards {
		nLicenses = opts.Shards
	}
	licenses := make([]string, nLicenses)
	licShard := make([]int32, nLicenses)
	for l := range licenses {
		licenses[l] = fmt.Sprintf("lic-%07d", l)
		licShard[l] = int32(c.Route(licenses[l]))
		total := int64(opts.ClientsPerLicense) * 500
		if err := c.RegisterLicense(licenses[l], lease.CountBased, total); err != nil {
			return nil, err
		}
	}

	type simClient struct {
		slid    string
		license int32
		left    int8
	}
	clients := make([]simClient, opts.Clients)
	for i := range clients {
		l := int32(i % nLicenses)
		remote := c.Leader(int(licShard[l])).Remote()
		init, err := remote.InitClient("", attest.Quote{}, nil)
		if err != nil {
			return nil, fmt.Errorf("harness: init client %d: %w", i, err)
		}
		clients[i] = simClient{slid: init.SLID, license: l, left: int8(opts.RenewalsPerClient)}
	}
	setupTime := time.Since(setupStart)

	res := &ClusterBenchResult{
		Clients:   opts.Clients,
		Shards:    opts.Shards,
		Licenses:  nLicenses,
		Kills:     opts.Kills,
		SetupTime: setupTime,
		PerShard:  make([]ShardBenchStats, opts.Shards),
	}
	for s := range res.PerShard {
		res.PerShard[s].Shard = s
	}
	for _, ls := range licShard {
		res.PerShard[ls].Licenses++
	}
	for _, cl := range clients {
		res.PerShard[licShard[cl.license]].Clients++
	}

	// Seed the virtual-time heap: every client's first renewal lands at a
	// jittered offset, so shards interleave instead of marching in phase.
	rng := rand.New(rand.NewSource(opts.Seed))
	const interval = 1 << 20 // virtual ticks between one client's renewals
	h := make(eventHeap, opts.Clients)
	for i := range clients {
		h[i] = clusterEvent{vt: rng.Int63n(interval), client: int32(i)}
	}
	heap.Init(&h)

	totalEvents := int64(opts.Clients) * int64(opts.RenewalsPerClient)
	killEvery := int64(0)
	if opts.Kills > 0 {
		killEvery = totalEvents / int64(opts.Kills+1)
	}
	nextKill := killEvery
	killShard := 0

	runStart := time.Now()
	var processed int64
	for h.Len() > 0 {
		ev := heap.Pop(&h).(clusterEvent)
		cl := &clients[ev.client]
		shard := int(licShard[cl.license])
		remote := c.Leader(shard).Remote()
		grant, err := remote.RenewLease(cl.slid, licenses[cl.license])
		res.PerShard[shard].Renewals++
		res.Renewals++
		if err != nil {
			res.PerShard[shard].Denials++
			res.Denials++
		}
		if rng.Intn(2) == 0 && err == nil && grant.Units > 1 {
			// Half the time the client reports half its grant spent,
			// exercising the consumed side of the ledger.
			if err := remote.ConsumeReport(cl.slid, licenses[cl.license], grant.Units/2); err != nil {
				return nil, fmt.Errorf("harness: consume: %w", err)
			}
			res.Consumes++
		}
		cl.left--
		if cl.left > 0 {
			heap.Push(&h, clusterEvent{vt: ev.vt + interval, client: ev.client})
		}

		processed++
		if killEvery > 0 && processed >= nextKill && killShard < opts.Kills {
			shard := killShard % opts.Shards
			killShard++
			nextKill += killEvery
			if err := c.FailOver(shard); err != nil {
				return nil, fmt.Errorf("harness: failover shard %d: %w", shard, err)
			}
			res.PerShard[shard].Failovers++
		}
	}
	res.RunTime = time.Since(runStart)

	// The whole point: a million clients, shard kills and all, and not
	// one lease unit created or destroyed — per shard and cluster-wide.
	if err := c.CheckConservation(); err != nil {
		return nil, fmt.Errorf("harness: cluster bench broke conservation: %w", err)
	}
	if opts.Kills > 0 {
		if err := c.VerifyAudit(); err != nil {
			return nil, fmt.Errorf("harness: cluster bench broke the audit chain: %w", err)
		}
		res.AuditVerified = true
	}
	if opts.Observe {
		if err := observeFleet(c, res, opts.ObsDump); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// observeFleet stands a fleet aggregator over every node the run ever
// created (dead leaders included — their scrapes fail, which is the
// point), cross-checks the merged view against the run's ground truth,
// extracts the failover timeline, and optionally dumps the artifacts.
func observeFleet(c *cluster.Cluster, res *ClusterBenchResult, dumpDir string) error {
	bundles := c.ObsTargets()
	targets := make([]fleet.Target, 0, len(bundles))
	for _, o := range bundles {
		targets = append(targets, fleet.Target{Name: o.Name, URL: o.URL()})
	}
	agg := fleet.New(fleet.Options{Targets: targets})
	// Dead nodes refuse the scrape; the error is part of the story, not a
	// failure of the run.
	_ = agg.ScrapeOnce()
	res.FleetNodes = agg.Nodes()

	// The merged fleet view must agree with the run's own ledger: the
	// summed slremote renewal counters across every node account for at
	// least the renewals the bench issued (promoted followers inherit
	// their counters, dead leaders take theirs to the grave — so the sum
	// can undershoot only by what died with killed leaders).
	merged := agg.Merged()
	var granted, denied float64
	for _, ef := range merged {
		switch ef.Name {
		case "slremote_renewals_total":
			for _, ch := range ef.Children {
				granted += ch.Value
			}
		case "slremote_renewals_denied_total":
			for _, ch := range ef.Children {
				denied += ch.Value
			}
		}
	}
	if res.Kills == 0 {
		if int64(granted) != res.Renewals-res.Denials || int64(denied) != res.Denials {
			return fmt.Errorf("harness: fleet view disagrees: merged grants %d / denials %d, bench saw %d / %d",
				int64(granted), int64(denied), res.Renewals-res.Denials, res.Denials)
		}
	}

	res.Timeline = failoverTimeline(agg.Events())

	if dumpDir != "" {
		if err := os.MkdirAll(dumpDir, 0o755); err != nil {
			return fmt.Errorf("harness: obs dump dir: %w", err)
		}
		if err := dumpFile(filepath.Join(dumpDir, "metrics.prom"), agg.WritePrometheus); err != nil {
			return err
		}
		if err := dumpFile(filepath.Join(dumpDir, "metrics.json"), agg.WriteExport); err != nil {
			return err
		}
		if err := dumpFile(filepath.Join(dumpDir, "flight.json"), func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(agg.Events())
		}); err != nil {
			return err
		}
	}
	return nil
}

// failoverTimeline filters a merged flight stream down to the events
// that narrate leadership changes.
func failoverTimeline(events []flight.Event) []flight.Event {
	var out []flight.Event
	for _, ev := range events {
		if strings.HasPrefix(ev.Kind, "failover.") || ev.Kind == "cluster.epoch_bump" {
			out = append(out, ev)
		}
	}
	return out
}

func dumpFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("harness: obs dump: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("harness: obs dump %s: %w", path, err)
	}
	return f.Close()
}

// Render prints the per-shard table and run summary.
func (r *ClusterBenchResult) Render() string {
	header := []string{"Shard", "Licenses", "Clients", "Renewals", "Denials", "Failovers"}
	rows := make([][]string, 0, len(r.PerShard))
	for _, s := range r.PerShard {
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Shard),
			fmtCount(int64(s.Licenses)),
			fmtCount(int64(s.Clients)),
			fmtCount(s.Renewals),
			fmtCount(s.Denials),
			fmt.Sprintf("%d", s.Failovers),
		})
	}
	title := fmt.Sprintf("Cluster: %s clients over %d shards (%s licenses, %d kills)",
		fmtCount(int64(r.Clients)), r.Shards, fmtCount(int64(r.Licenses)), r.Kills)
	out := renderTable(title, header, rows)
	out += fmt.Sprintf("\nSetup %v, run %v: %s renewals (%s denied), %s consume reports.\n",
		r.SetupTime.Round(time.Millisecond), r.RunTime.Round(time.Millisecond),
		fmtCount(r.Renewals), fmtCount(r.Denials), fmtCount(r.Consumes))
	out += "Conservation verified per shard and cluster-wide"
	if r.AuditVerified {
		out += "; audit chains verified across failovers"
	}
	out += ".\n"
	if len(r.Timeline) > 0 {
		out += "\nFailover timeline (flight recorder, merged across nodes):\n"
		for _, ev := range r.Timeline {
			out += "  " + ev.String() + "\n"
		}
	}
	if len(r.FleetNodes) > 0 {
		down := 0
		for _, n := range r.FleetNodes {
			if !n.Up {
				down++
			}
		}
		out += fmt.Sprintf("Fleet scrape: %d nodes observed, %d down (dead leader incarnations stay listed).\n",
			len(r.FleetNodes), down)
	}
	return out
}
