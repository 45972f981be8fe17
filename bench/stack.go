package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/cluster"
	"repro/internal/lease"
	"repro/internal/leasetree"
	"repro/internal/obs"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slmanager"
	"repro/internal/slremote"
	"repro/internal/wire"
)

// The fleet's provisioning secret and seal key: fixed inputs, so that
// nothing about the deployment depends on the workload seed.
var (
	fleetSecret = []byte("bench-fleet-provisioning-secret")
	sealKeyRaw  = []byte("bench-seal-key-0")
	appIdentity = []byte("bench/guarded-app/v1")
)

// clientTimeout is the wire clients' per-round-trip deadline. It is far
// above wire.DefaultTimeout (10 s) on purpose. The renewal coalescer's
// leader keeps draining batches for as long as its queue is non-empty
// and only then returns to its own caller, so under sustained pipelined
// load one caller per shard is held for seconds after its grant was
// made — occasionally past 10 s, which a default client reports as an
// i/o timeout (seen once in about 25 renew-durable runs at the seed).
// With this deadline the op completes when the window closes and the
// queue drains: it shows up in the latency tail (wire.rtt_max_ms)
// instead of failing the run.
const clientTimeout = 2 * time.Minute

// connInflight is how many set-up RPCs ride one connection at once
// (registration, InitClient, warm-up): enough for group commit to batch,
// not so many that set-up time measures goroutine scheduling.
const connInflight = 8

// stackOptions is what differs between the stacks one process builds.
type stackOptions struct {
	cfg  stackConfig
	dir  string // parent of the state directory
	seed int64
	// renewBudget is how many renewal ops the renew population must
	// absorb after warm-up (every window that draws on it, summed).
	renewBudget int
	// insecure swaps RA-TLS for ratls.Insecure() on every channel: the
	// ladder rung that isolates the cost of RA-TLS records.
	insecure bool
	// observe turns on what the trace pass reads: cluster.Options.Observe,
	// ExposeMetrics on the clients and SL-Locals, and the bench-side
	// RemoteAPI decorator. End-to-end numbers are taken with it off.
	observe bool
	spans   *spanLog
}

// shardPop is the renew population of one shard: C simulated SL-Locals
// (SLIDs issued by that shard's leader, so the client never sees a
// not_leader redirect) and the licenses they all hold.
type shardPop struct {
	slids    []string
	licenses []string
}

// instance is one real SL-Local on its own simulated machine, with the
// application enclaves (SL-Managers) that share it.
type instance struct {
	shard int
	plat  *attest.Platform
	svc   *sllocal.Service
	apps  []*sgx.Enclave
	mgrs  []*slmanager.Manager
}

// stack is the system under test, assembled as deployed: a 2-shard
// cluster (leaders with WAL, followers tailing, optional audit chain),
// one attested wire.Client per shard leader, a renew population, and
// optionally real SL-Local instances with SL-Managers on top.
type stack struct {
	opts    stackOptions
	dir     string
	cluster *cluster.Cluster

	rcMu     sync.Mutex
	serverRC []*ratls.Config // every channel config the cluster minted

	clients [shards]*wire.Client
	remotes [shards]sllocal.RemoteAPI // clients, decorated when observing
	pops    [shards]shardPop
	// granted is the client ledger: units granted per SLID since its
	// InitClient, summed over licenses. The gate holds it against the
	// server's Outstanding.
	granted [shards][]atomic.Int64

	appLicenses [shards][]string
	appFuncs    [shards][]string
	instances   []*instance
	executed    int64 // Manager.Execute calls made by windows, for the gate
	treeBudget  int64 // MemoryBudget of every instance
	treeFull    int64 // footprint of one instance's tree with nothing evicted

	// Registries the trace pass reads (observe only). Each wire.Client
	// needs one of its own: its counters are unlabeled, so two clients on
	// one registry would shadow each other.
	clientRegs [shards]*obs.Registry
	localReg   *obs.Registry // the SL-Local instances, labeled by machine
	clusterReg *obs.Registry // the cluster_* family
}

// newStack stands the whole deployment up and brings it to steady
// state. Its wall time is the workload's set-up time.
func newStack(opts stackOptions) (_ *stack, err error) {
	st := &stack{opts: opts}
	st.dir, err = os.MkdirTemp(opts.dir, "state-")
	if err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	defer func() {
		if err != nil {
			st.close() // the set-up error is the one to report
		}
	}()
	if opts.observe {
		for s := range st.clientRegs {
			st.clientRegs[s] = obs.NewRegistry()
		}
		st.localReg = obs.NewRegistry()
		st.clusterReg = obs.NewRegistry()
	}
	if err := st.startCluster(); err != nil {
		return nil, err
	}
	if err := st.dialClients(); err != nil {
		return nil, err
	}
	if err := st.provisionRenewPopulation(); err != nil {
		return nil, err
	}
	if err := st.provisionInstances(); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *stack) startCluster() error {
	sealKey, err := seccrypto.KeyFromBytes(sealKeyRaw)
	if err != nil {
		return err
	}
	// SL-Remote verifies every InitClient quote against the provisioned
	// fleet, as the sl-remote daemon does without -open.
	service := attest.NewService()
	service.EnableProvisioning(fleetSecret)
	service.TrustMeasurement(sgx.MeasurementOf(sllocal.EnclaveCodeIdentity))
	opts := cluster.Options{
		Shards:   shards,
		Dir:      filepath.Join(st.dir, "cluster"),
		SealKey:  sealKey,
		Service:  service,
		SyncMode: st.opts.cfg.sync,
		Audit:    st.opts.cfg.audit,
		Observe:  st.opts.observe,
		Registry: st.clusterReg,
	}
	if !st.opts.insecure {
		opts.NewChannel = func(role string) (*ratls.Config, error) {
			m, err := sgx.NewMachine(sgx.MachineConfig{Name: role})
			if err != nil {
				return nil, err
			}
			// Leaders accept SL-Locals and (for replication) their own
			// followers; followers present the SL-Remote identity.
			rc, err := ratls.NewProvisioned(role, m, fleetSecret, slremote.EnclaveCodeIdentity,
				sllocal.EnclaveCodeIdentity, slremote.EnclaveCodeIdentity)
			if err != nil {
				return nil, err
			}
			st.rcMu.Lock()
			st.serverRC = append(st.serverRC, rc)
			st.rcMu.Unlock()
			return rc, nil
		}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return err
	}
	st.cluster, err = cluster.New(opts)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// serverChannels returns every channel config the cluster minted.
func (st *stack) serverChannels() []*ratls.Config {
	st.rcMu.Lock()
	defer st.rcMu.Unlock()
	return append([]*ratls.Config(nil), st.serverRC...)
}

// newClientChannel mints the channel config an SL-Local daemon would.
func (st *stack) newClientChannel(name string) (*ratls.Config, error) {
	if st.opts.insecure {
		return ratls.Insecure(), nil
	}
	m, err := sgx.NewMachine(sgx.MachineConfig{Name: name})
	if err != nil {
		return nil, err
	}
	return ratls.NewProvisioned(name, m, fleetSecret, sllocal.EnclaveCodeIdentity, slremote.EnclaveCodeIdentity)
}

func (st *stack) dialClients() error {
	// Both connections present the one credential of the client machine.
	rc, err := st.newClientChannel("bench-client")
	if err != nil {
		return err
	}
	for s := 0; s < shards; s++ {
		c, err := wire.DialPolicy(st.cluster.Leader(s).Addr(), clientTimeout, rc,
			wire.DefaultRetryPolicy(int64(s)+100))
		if err != nil {
			return fmt.Errorf("dialing shard %d: %w", s, err)
		}
		st.clients[s] = c
		st.remotes[s] = c
		if st.opts.observe {
			c.ExposeMetrics(st.clientRegs[s], nil)
			st.remotes[s] = newTracedRemote(c, st.opts.spans)
		}
	}
	return nil
}

// licensesOnShards names n licenses per wanted shard. Placement is the
// ring's, so names are tried in order until every shard has its share;
// the names do not depend on the seed.
func (st *stack) licensesOnShards(prefix string, n int, want [shards]bool) [shards][]string {
	var out [shards][]string
	need := 0
	for s := range want {
		if want[s] {
			need += n
		}
	}
	for i := 0; need > 0; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		s := st.cluster.Route(id)
		if want[s] && len(out[s]) < n {
			out[s] = append(out[s], id)
			need--
		}
	}
	return out
}

// register declares licenses on their owning shards, both shards at
// once. Registration is an operator action on the server, not traffic.
func (st *stack) register(ids [shards][]string, total int64) error {
	return parallel(shards, shards, func(s int) error {
		for _, id := range ids[s] {
			if err := st.cluster.RegisterLicense(id, lease.CountBased, total); err != nil {
				return err
			}
		}
		return nil
	})
}

// provisionRenewPopulation creates the simulated SL-Locals and brings
// every (SLID, license) pair to its steady state: all C holders joined,
// so every later renewal is priced at TotalGCL/(4·C²).
func (st *stack) provisionRenewPopulation() error {
	c := st.opts.cfg.slidsPerShard
	nLic := renewLicensesPerShard(st.opts.cfg, st.opts.renewBudget)
	if c == 0 || nLic == 0 {
		return nil
	}
	ids := st.licensesOnShards("renew", nLic, [shards]bool{true, true})
	if err := st.register(ids, 1<<40); err != nil {
		return err
	}
	quote, err := simulatedQuote()
	if err != nil {
		return err
	}
	return parallel(shards, shards, func(s int) error {
		pop := &st.pops[s]
		pop.licenses = ids[s]
		pop.slids = make([]string, c)
		st.granted[s] = make([]atomic.Int64, c)
		err := parallel(c, connInflight, func(i int) error {
			res, err := st.clients[s].InitClient("", quote, nil)
			pop.slids[i] = res.SLID
			return err
		})
		if err != nil {
			return fmt.Errorf("shard %d InitClient: %w", s, err)
		}
		// License-major, so a license's holders join back to back and the
		// whole population is at C holders when the loop ends.
		return parallel(c*nLic, connInflight, func(k int) error {
			return st.renew(s, op{a: k % c, b: k / c})
		})
	})
}

// renewCall is the signature of RenewLease at every rung of the ladder.
type renewCall func(slid, licenseID string) (slremote.Grant, error)

// renew is the opRenew operation: one RenewLease through the shard's
// connection, booked in the client ledger.
func (st *stack) renew(shard int, o op) error {
	return st.renewWith(st.remotes[shard].RenewLease, shard, o)
}

// renewWith is renew through a chosen entry point: the ladder enters
// the same op one layer lower by passing the shard leader's in-process
// server instead of the wire client.
func (st *stack) renewWith(call renewCall, shard int, o op) error {
	pop := &st.pops[shard]
	g, err := call(pop.slids[o.a], pop.licenses[o.b])
	if err != nil {
		return err
	}
	if g.Units <= 0 {
		return fmt.Errorf("renewal of %s for %s granted %d units", pop.licenses[o.b], pop.slids[o.a], g.Units)
	}
	st.granted[shard][o.a].Add(g.Units)
	return nil
}

// simulatedQuote is the remote-attestation quote the simulated SL-Locals
// present at InitClient: a real quote of the SL-Local code identity from
// a provisioned platform. One quote serves them all; SL-Remote issues a
// fresh SLID per InitClient.
func simulatedQuote() (attest.Quote, error) {
	m, err := sgx.NewMachine(sgx.MachineConfig{Name: "bench-sim-local"})
	if err != nil {
		return attest.Quote{}, err
	}
	plat, err := attest.NewProvisionedPlatform("bench-sim-local", m, fleetSecret)
	if err != nil {
		return attest.Quote{}, err
	}
	enc, err := m.CreateEnclave("sl-local", sllocal.EnclaveCodeIdentity, 0)
	if err != nil {
		return attest.Quote{}, err
	}
	return plat.CreateQuote(enc, nil)
}

// unevictedFootprint is the trusted-memory footprint of a lease tree
// holding n leases with nothing evicted, allocated the way SL-Local
// allocates (one 256-ID block per application).
func unevictedFootprint(n int) (int64, error) {
	tree := leasetree.NewTree()
	var blk *leasetree.Block
	alloc := leasetree.NewIDAllocator()
	for i := 0; i < n; i++ {
		if blk == nil || blk.Remaining() == 0 {
			blk = alloc.NextBlock()
		}
		id, _ := blk.Next()
		if err := tree.Put(lease.Record{ID: id, GCL: lease.NewCountGCL(1), Owner: "probe"}); err != nil {
			return 0, err
		}
	}
	return tree.Footprint(), nil
}

// provisionInstances starts the real SL-Local instances, joins every
// instance to every license of its shard, and burns off the join bonus.
func (st *stack) provisionInstances() error {
	cfg := st.opts.cfg
	if cfg.instances == 0 {
		return nil
	}
	var want [shards]bool
	for i := 0; i < cfg.instances; i++ {
		want[i%shards] = true
	}
	st.appLicenses = st.licensesOnShards("app", cfg.appLicensesPerShard, want)
	if err := st.register(st.appLicenses, cfg.appTotalGCL); err != nil {
		return err
	}
	for s := range st.appLicenses {
		for i := range st.appLicenses[s] {
			st.appFuncs[s] = append(st.appFuncs[s], fmt.Sprintf("key-fn-%d", i))
		}
	}
	var err error
	st.treeFull, err = unevictedFootprint(cfg.appLicensesPerShard)
	if err != nil {
		return err
	}
	st.treeBudget = sllocal.DefaultConfig().MemoryBudget
	if cfg.budgetFraction > 0 {
		st.treeBudget = int64(cfg.budgetFraction * float64(st.treeFull))
	}
	st.instances = make([]*instance, cfg.instances)
	if err := parallel(cfg.instances, cfg.instances, st.startInstance); err != nil {
		return err
	}

	perShard := (cfg.instances + shards - 1) / shards
	if perShard < 2 {
		return nil // a lone holder has no join bonus to burn
	}
	return parallel(cfg.instances, cfg.instances, st.burnJoinBonus)
}

// startInstance boots instance i: machine, platform, SL-Local (Init is
// a remote attestation plus InitClient over the wire), application
// enclaves with their SL-Managers, and the first token of every
// license, which is the renewal that joins the license's holder set.
func (st *stack) startInstance(i int) error {
	cfg := st.opts.cfg
	shard := i % shards
	name := fmt.Sprintf("bench-local-%d", i)
	m, err := sgx.NewMachine(sgx.MachineConfig{Name: name})
	if err != nil {
		return err
	}
	plat, err := attest.NewProvisionedPlatform(name, m, fleetSecret)
	if err != nil {
		return err
	}
	inst := &instance{shard: shard, plat: plat}
	inst.svc, err = sllocal.New(
		sllocal.Config{TokenBatch: cfg.tokenBatch, MemoryBudget: st.treeBudget},
		sllocal.Deps{Machine: m, Platform: plat, Remote: st.remotes[shard], State: &sllocal.UntrustedState{}})
	if err != nil {
		return err
	}
	if err := inst.svc.Init(); err != nil {
		return fmt.Errorf("instance %d: %w", i, err)
	}
	if st.opts.observe {
		inst.svc.ExposeMetrics(st.localReg, nil)
	}
	for k := 0; k < cfg.managersPerInstance; k++ {
		app, err := m.CreateEnclave(fmt.Sprintf("app-%d", k), appIdentity, 0)
		if err != nil {
			return err
		}
		mgr, err := slmanager.New(app, inst.svc)
		if err != nil {
			return err
		}
		for j, lic := range st.appLicenses[shard] {
			mgr.Guard(st.appFuncs[shard][j], lic)
		}
		inst.apps = append(inst.apps, app)
		inst.mgrs = append(inst.mgrs, mgr)
	}
	for _, lic := range st.appLicenses[shard] {
		if _, err := inst.svc.RequestToken(inst.apps[0], lic); err != nil {
			return fmt.Errorf("instance %d joining %s: %w", i, lic, err)
		}
	}
	st.instances[i] = inst
	return nil
}

// burnJoinBonus spends what instance i was granted for joining early.
// The k-th holder to join a license receives TotalGCL/(4·k²) — the first
// a quarter of the budget — so without this the early joiners would not
// renew at all during a window and the late ones would carry the whole
// renewal rate. The server knows what each pair was granted (its
// Outstanding); the pair is drawn down locally, token batch by token
// batch, to a seeded remainder of 0–4 batches, so pairs neither renew
// during set-up nor all renew in phase in the window.
func (st *stack) burnJoinBonus(i int) error {
	inst := st.instances[i]
	r := newRNG(st.opts.seed, 1000+i)
	remote := st.cluster.Leader(inst.shard).Remote()
	batch := int64(st.opts.cfg.tokenBatch)
	for _, lic := range st.appLicenses[inst.shard] {
		// The join itself issued one batch.
		left := remote.Outstanding(inst.svc.SLID(), lic)/batch - 1
		for keep := int64(r.intn(5)); left > keep; left-- {
			if _, err := inst.svc.RequestToken(inst.apps[0], lic); err != nil {
				return fmt.Errorf("instance %d burning %s: %w", i, lic, err)
			}
		}
	}
	return nil
}

// execute is the opExecute operation: caller runs key function o.b on
// instance o.a through the application enclave it owns there.
func (st *stack) execute(caller int, o op) error {
	inst := st.instances[o.a]
	mgr := inst.mgrs[caller%len(inst.mgrs)]
	return mgr.Execute(st.appFuncs[inst.shard][o.b], noop)
}

func noop() error { return nil }

// close tears the deployment down and removes its state. Safe on a
// partly built stack.
func (st *stack) close() error {
	var errs []error
	for _, c := range st.clients {
		if c != nil {
			errs = append(errs, c.Close())
		}
	}
	if st.cluster != nil {
		errs = append(errs, st.cluster.Close())
	}
	if st.dir != "" {
		errs = append(errs, os.RemoveAll(st.dir))
	}
	return errors.Join(errs...)
}

// parallel runs fn(0..n-1) on at most conc goroutines and returns the
// first error once all have finished.
func parallel(n, conc int, fn func(i int) error) error {
	if conc > n {
		conc = n
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					once.Do(func() { first = err })
					next.Store(int64(n)) // stop handing out work
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// timed runs fn and returns how long it took.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}
