package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attest"
	"repro/internal/audit"
	"repro/internal/lease"
	"repro/internal/leasetree"
	"repro/internal/obs"
	"repro/internal/seccrypto"
	"repro/internal/slremote"
	"repro/internal/store"
	"repro/internal/wire"
)

// The trace pass spends the run's seconds on one traced window of the
// workload and a ladder of short untraced rungs, each entering the same
// seeded op stream one layer lower than the one before:
//
//	Manager.Execute → Service.RequestToken → leasetree.Tree.Update
//	wire over RA-TLS → wire over ratls.Insecure() → Server.RenewLease
//	in-process → store.Logger.Append / audit.Log.Append
//
// A layer's self time is the difference between adjacent rungs.
const (
	traceMainShare = 0.34   // of -seconds: the traced window
	traceRungShare = 0.11   // each of the long rungs
	traceTinyShare = 0.03   // each of the single-function rungs
	spanLimit      = 15_000 // per span name
)

// rung is one ladder measurement, reduced to what the waterfall needs.
type rung struct {
	ops        int64
	meanUS     float64
	p50US      float64
	opsPerS    float64
	cpuUSPerOp float64
}

func rungOf(res *windowResult) rung {
	return rung{
		ops:        res.ops,
		meanUS:     res.lat.mean() / 1e3,
		p50US:      res.lat.quantile(0.5) / 1e3,
		opsPerS:    float64(res.ops) / res.wall.Seconds(),
		cpuUSPerOp: ratio(float64((res.after.cpu-res.before.cpu).Nanoseconds())/1e3, float64(res.ops)),
	}
}

func failedRung(name string, res *windowResult) error {
	if res.failed != 0 || res.ops == 0 {
		return fmt.Errorf("%s rung: %d ops, %d failed: %v", name, res.ops, res.failed, res.firstErr)
	}
	return nil
}

// waterfallRow is one line of the per-op waterfall: a layer's self time
// in µs per workload op (means, because means add and medians do not).
type waterfallRow struct {
	Layer string  `json:"layer"`
	US    float64 `json:"us_per_op"`
}

// check is a bypass prediction evaluated on the traced window.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// renewCapPerSecond is the op cap of a wire-level renewal rung.
func renewCapPerSecond(w *workload) int {
	if w.kind == opRenew {
		return w.capPerSecond
	}
	return 8_000 // the Execute workloads renew against the durable, audited config
}

// dur converts a length in seconds to a time.Duration.
func dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ladderRenew runs a closed-loop renewal rung on st at the workload's
// ladder concurrency; entry picks the RenewLease entry point per shard.
func ladderRenew(st *stack, w *workload, seed int64, stream int, d time.Duration, opCap int64, entry func(shard int) renewCall) *windowResult {
	return runClosed(w.ladderInflight, d, opCap, 1, 1, func(c int) func(bool) error {
		shard := c % shards
		call := entry(shard)
		g := newOpGen(seed, stream+c, len(st.pops[shard].slids), len(st.pops[shard].licenses))
		return func(bool) error { return st.renewWith(call, shard, g.next()) }
	})
}

// ladder is everything the untraced rungs measured.
type ladder struct {
	top      rung // the workload's own op, untraced: the overhead baseline
	token    rung // Service.RequestToken
	tree     rung // leasetree.Tree.Update
	attestNS float64
	ratls    rung // RenewLease through wire over RA-TLS
	insecure rung // RenewLease through wire over ratls.Insecure()
	inproc   rung // Server.RenewLease in-process on the shard leaders
	alone    standaloneReport
	auditUS  float64 // audit.Log.Append p50

	treeEvictionsPerUpdate float64
	treeRestoresPerUpdate  float64
}

// runTrace is the per-layer pass of one workload.
func runTrace(rc runConfig, out io.Writer) (*runResult, error) {
	w := rc.w
	var (
		mainS = rc.seconds * traceMainShare
		rungS = rc.seconds * traceRungShare
		tinyS = rc.seconds * traceTinyShare
		spans = newSpanLog(spanLimit)
		lad   ladder
	)
	if err := checkSizing(w, windowCap(w, mainS+2*rungS)+int64(w.warmOps)); err != nil {
		return nil, err
	}
	if err := lad.runAttested(rc, rungS, tinyS); err != nil {
		return nil, err
	}
	if err := lad.runInsecure(rc, rungS); err != nil {
		return nil, err
	}
	if err := lad.runStandalone(rc, spans, rungS, tinyS); err != nil {
		return nil, err
	}
	return lad.runTraced(rc, spans, mainS, out)
}

// runAttested builds the untraced deployment and runs the rungs that
// need it: the workload's own op, RequestToken, local attestation,
// RenewLease over RA-TLS and RenewLease in-process.
func (lad *ladder) runAttested(rc runConfig, rungS, tinyS float64) error {
	w := rc.w
	cfg := w.stack
	cfg.slidsPerShard = w.holders()
	wireCap := int64(float64(renewCapPerSecond(w)) * rungS)
	inprocCap := 3 * wireCap
	budget := int(wireCap + inprocCap)
	if w.kind == opRenew {
		budget += w.warmOps + int(windowCap(w, rungS))
	}
	st, err := newStack(stackOptions{cfg: cfg, dir: rc.outDir, seed: rc.seed, renewBudget: budget})
	if err != nil {
		return fmt.Errorf("ladder set-up: %w", err)
	}
	defer st.close()
	if err := st.warmUp(w, rc.seed); err != nil {
		return err
	}
	// A rung with a failed op is an error, so the gate below sees none.
	run := func(name string, res *windowResult) (rung, error) {
		return rungOf(res), failedRung(name, res)
	}
	if lad.top, err = run("workload", st.window(w, rc.seed, rungS, st.do(w))); err != nil {
		return err
	}
	if w.kind == opExecute {
		// RequestToken bypasses the SL-Managers, so this rung is not booked
		// as Execute calls: the gate holds authorizations against those.
		res := runClosed(w.inflight, dur(rungS), 0, 1, 1, func(c int) func(bool) error {
			g := newOpGen(rc.seed, 2000+c, len(st.instances), cfg.appLicensesPerShard)
			return func(bool) error {
				o := g.next()
				inst := st.instances[o.a]
				tok, err := inst.svc.RequestToken(inst.apps[c%len(inst.apps)], st.appLicenses[inst.shard][o.b])
				if err == nil && tok.Grants == 0 {
					err = fmt.Errorf("empty token")
				}
				return err
			}
		})
		if lad.token, err = run("RequestToken", res); err != nil {
			return err
		}
		inst := st.instances[0]
		res = runClosed(1, dur(tinyS), 0, 1, 1, func(int) func(bool) error {
			return func(bool) error { return inst.plat.MutualLocalAttest(inst.apps[0], inst.svc.Enclave()) }
		})
		if _, err = run("MutualLocalAttest", res); err != nil {
			return err
		}
		lad.attestNS = res.lat.mean()
	}
	lad.ratls, err = run("wire over RA-TLS", ladderRenew(st, w, rc.seed, 3000, dur(rungS), wireCap,
		func(shard int) renewCall { return st.remotes[shard].RenewLease }))
	if err != nil {
		return err
	}
	lad.inproc, err = run("in-process", ladderRenew(st, w, rc.seed, 4000, dur(rungS), inprocCap,
		func(shard int) renewCall { return st.cluster.Leader(shard).Remote().RenewLease }))
	if err != nil {
		return err
	}
	if _, err := st.gate(0); err != nil {
		return fmt.Errorf("ladder correctness gate: %w", err)
	}
	return nil
}

// runInsecure measures RenewLease through wire with RA-TLS swapped for
// ratls.Insecure() on a deployment otherwise configured the same.
func (lad *ladder) runInsecure(rc runConfig, rungS float64) error {
	w := rc.w
	cfg := stackConfig{sync: w.stack.sync, audit: w.stack.audit, slidsPerShard: w.holders()}
	opCap := int64(float64(renewCapPerSecond(w)) * rungS * 1.5)
	st, err := newStack(stackOptions{cfg: cfg, dir: rc.outDir, seed: rc.seed, renewBudget: int(opCap), insecure: true})
	if err != nil {
		return fmt.Errorf("insecure rung set-up: %w", err)
	}
	defer st.close()
	res := ladderRenew(st, w, rc.seed, 3000, dur(rungS), opCap,
		func(shard int) renewCall { return st.remotes[shard].RenewLease })
	if err := failedRung("wire over ratls.Insecure()", res); err != nil {
		return err
	}
	lad.insecure = rungOf(res)
	if _, err := st.gate(0); err != nil {
		return fmt.Errorf("insecure rung correctness gate: %w", err)
	}
	return nil
}

// standaloneReport is what the seam decorators saw on a bench-built
// slremote.Server persisting through a decorated store.
type standaloneReport struct {
	renew        rung
	appendP50US  float64
	appendMeanUS float64
	appendsPerOp float64
	bytesPerOp   float64
}

// standaloneServer is a bench-built slremote.Server persisting through
// a decorated store: the only place the SL-Remote → WAL seam can be
// watched from outside, because a cluster node opens its own store.
type standaloneServer struct {
	remote   *slremote.Server
	logger   *tracedLogger
	slids    []string
	licenses []string
	closers  []io.Closer
}

func (sv *standaloneServer) close() {
	for _, c := range sv.closers {
		c.Close() // scratch state of a finished rung; nothing to salvage
	}
}

// newStandaloneServer opens a store and (for audited workloads) an
// audit log under dir, attaches them to a fresh server, and warms a
// renew population of holders SLIDs × nLic licenses on it.
func newStandaloneServer(dir string, w *workload, holders, nLic int, spans *spanLog) (_ *standaloneServer, err error) {
	sealKey, err := seccrypto.KeyFromBytes(sealKeyRaw)
	if err != nil {
		return nil, err
	}
	stor, _, err := store.Open(store.Options{Dir: filepath.Join(dir, "wal"), Mode: w.stack.sync})
	if err != nil {
		return nil, err
	}
	sv := &standaloneServer{
		logger:  &tracedLogger{log: stor, snap: stor, spans: spans},
		closers: []io.Closer{stor},
	}
	defer func() {
		if err != nil {
			sv.close()
		}
	}()
	sv.remote, err = slremote.NewServer(slremote.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	err = sv.remote.AttachPersistence(slremote.PersistConfig{Log: sv.logger, Snap: sv.logger, SealKey: sealKey})
	if err != nil {
		return nil, err
	}
	if w.stack.audit {
		alog, err := audit.Open(filepath.Join(dir, "audit.log"), sealKey)
		if err != nil {
			return nil, err
		}
		sv.closers = append(sv.closers, alog)
		sv.remote.AttachAudit(alog)
	}
	for i := 0; i < nLic; i++ {
		id := fmt.Sprintf("alone-%d", i)
		if err := sv.remote.RegisterLicense(id, lease.CountBased, 1<<40); err != nil {
			return nil, err
		}
		sv.licenses = append(sv.licenses, id)
	}
	sv.slids = make([]string, holders)
	err = parallel(holders, connInflight, func(i int) error {
		res, err := sv.remote.InitClient("", attest.Quote{}, nil)
		sv.slids[i] = res.SLID
		return err
	})
	if err != nil {
		return nil, err
	}
	err = parallel(holders*nLic, connInflight, func(k int) error {
		_, err := sv.remote.RenewLease(sv.slids[k%holders], sv.licenses[k/holders])
		return err
	})
	return sv, err
}

// runStandalone runs the rungs that need no deployment: a bench-built
// slremote.Server per shard whose store.Logger and store.Snapshotter
// are decorated (the SL-Remote → WAL seam, with the records Algorithm 1
// really writes at the concurrency the coalescer really produces),
// audit.Log.Append of a renewal record, and leasetree.Tree.Update.
func (lad *ladder) runStandalone(rc runConfig, spans *spanLog, rungS, tinyS float64) error {
	w := rc.w
	dir, err := os.MkdirTemp(rc.outDir, "standalone-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opCap := int64(float64(renewCapPerSecond(w)) * rungS * 3)
	nLic := renewLicensesPerShard(stackConfig{slidsPerShard: w.holders()}, int(opCap))
	servers := make([]*standaloneServer, shards)
	for s := range servers {
		servers[s], err = newStandaloneServer(filepath.Join(dir, fmt.Sprint(s)), w, w.holders(), nLic, spans)
		if err != nil {
			return fmt.Errorf("standalone server %d: %w", s, err)
		}
		defer servers[s].close()
	}
	seam := func() (*hist, int64) {
		lat, bytes := &hist{}, int64(0)
		for _, sv := range servers {
			lat.merge(sv.logger.lat.snapshot())
			bytes += sv.logger.bytes.Load()
		}
		return lat, bytes
	}
	warmLat, warmBytes := seam()
	var nextOp atomic.Uint64
	res := runClosed(w.ladderInflight, dur(rungS), opCap, 1, 1, func(c int) func(bool) error {
		sv := servers[c%shards]
		g := newOpGen(rc.seed, 5000+c, len(sv.slids), len(sv.licenses))
		return func(bool) error {
			o := g.next()
			id := nextOp.Add(1)
			sv.logger.cur.Store(id)
			start := time.Now()
			grant, err := sv.remote.RenewLease(sv.slids[o.a], sv.licenses[o.b])
			spans.add(id, spanServerRenew, "", start, time.Now())
			if err == nil && grant.Units <= 0 {
				err = fmt.Errorf("standalone renewal granted %d units", grant.Units)
			}
			return err
		}
	})
	if err := failedRung("standalone server", res); err != nil {
		return err
	}
	for _, sv := range servers {
		sv.logger.cur.Store(0)
		if d := sv.remote.Stats().RenewalsDenied; d != 0 {
			return fmt.Errorf("standalone server denied %d renewals", d)
		}
	}
	appendLat, appendBytes := seam()
	appendLat.subtract(warmLat)
	lad.alone = standaloneReport{
		renew:        rungOf(res),
		appendP50US:  appendLat.quantile(0.5) / 1e3,
		appendMeanUS: appendLat.mean() / 1e3,
		appendsPerOp: ratio(float64(appendLat.n), float64(res.ops)),
		bytesPerOp:   ratio(float64(appendBytes-warmBytes), float64(res.ops)),
	}

	if w.stack.audit {
		if lad.auditUS, err = auditAppendRung(dir, tinyS); err != nil {
			return err
		}
	}
	if w.kind == opExecute {
		return lad.runTreeRung(rc, tinyS)
	}
	return nil
}

// auditAppendRung times audit.Log.Append of a renewal record, one
// appender, as the server appends under its lock.
func auditAppendRung(dir string, tinyS float64) (p50US float64, err error) {
	sealKey, err := seccrypto.KeyFromBytes(sealKeyRaw)
	if err != nil {
		return 0, err
	}
	alog, err := audit.Open(filepath.Join(dir, "audit-probe.log"), sealKey)
	if err != nil {
		return 0, err
	}
	defer alog.Close()
	res := runClosed(1, dur(tinyS), 0, 1, 1, func(int) func(bool) error {
		return func(bool) error {
			return alog.Append(audit.Record{
				Op: audit.OpRenew, SLID: "slid-17", License: "renew-17", Units: 65536,
				Alg1: &audit.Alg1{Alpha: 1.0 / 64, ScaleDown: 4, Health: 1, Reliability: 1},
			})
		}
	})
	return res.lat.quantile(0.5) / 1e3, failedRung("audit.Log.Append", res)
}

// runTreeRung drives leasetree.Tree.Update directly: one tree per
// instance, as many leases and the same budget as the instances' own,
// the callers consuming a token batch per update as SL-Local does.
func (lad *ladder) runTreeRung(rc runConfig, tinyS float64) error {
	w := rc.w
	full, err := unevictedFootprint(w.stack.appLicensesPerShard)
	if err != nil {
		return err
	}
	trees := make([]*leasetree.Tree, w.stack.instances)
	ids := make([]lease.ID, w.stack.appLicensesPerShard)
	for t := range trees {
		trees[t] = leasetree.NewTree()
		blk := leasetree.NewIDAllocator().NextBlock()
		for i := range ids {
			if blk.Remaining() == 0 {
				return fmt.Errorf("tree rung: %d leases do not fit one ID block", len(ids))
			}
			ids[i], _ = blk.Next()
			if err := trees[t].Put(lease.Record{ID: ids[i], GCL: lease.NewCountGCL(1 << 50), Owner: "rung"}); err != nil {
				return err
			}
		}
		if w.stack.budgetFraction > 0 {
			trees[t].SetBudget(int64(w.stack.budgetFraction * float64(full)))
		}
	}
	batch := w.stack.tokenBatch
	now := time.Unix(0, 0)
	statsOf := func() (st leasetree.TreeStats) {
		for _, t := range trees {
			s := t.Stats()
			st.Evictions += s.Evictions
			st.Restores += s.Restores
		}
		return st
	}
	// An untimed pass first, so the budget has already evicted what it
	// will and the timed updates see the steady mix of hits and restores.
	warm := newOpGen(rc.seed, 5999, len(trees), len(ids))
	consume := func(r *lease.Record) error {
		for i := 0; i < batch; i++ {
			if err := r.GCL.Consume(now); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < 4*len(ids); i++ {
		o := warm.next()
		if err := trees[o.a].Update(ids[o.b], consume); err != nil {
			return err
		}
	}
	before := statsOf()
	res := runClosed(w.inflight, dur(tinyS), 0, w.timedEvery, 1, func(c int) func(bool) error {
		g := newOpGen(rc.seed, 6000+c, len(trees), len(ids))
		return func(bool) error {
			o := g.next()
			return trees[o.a].Update(ids[o.b], consume)
		}
	})
	if err := failedRung("leasetree.Tree.Update", res); err != nil {
		return err
	}
	after := statsOf()
	lad.tree = rungOf(res)
	lad.treeEvictionsPerUpdate = ratio(float64(after.Evictions-before.Evictions), float64(res.ops))
	lad.treeRestoresPerUpdate = ratio(float64(after.Restores-before.Restores), float64(res.ops))
	return nil
}

// lagSampler polls the cluster_repl_lag_bytes gauges while a window
// runs and keeps the largest sum it saw.
type lagSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	max  atomic.Int64
}

func startLagSampler(reg *obs.Registry) *lagSampler {
	ls := &lagSampler{stop: make(chan struct{})}
	ls.done.Add(1)
	go func() {
		defer ls.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ls.stop:
				return
			case <-tick.C:
				for _, fam := range reg.Export() {
					if fam.Name != "cluster_repl_lag_bytes" {
						continue
					}
					for _, ch := range fam.Children {
						if v := int64(ch.Value); v > ls.max.Load() {
							ls.max.Store(v)
						}
					}
				}
			}
		}
	}()
	return ls
}

func (ls *lagSampler) finish() int64 {
	close(ls.stop)
	ls.done.Wait()
	return ls.max.Load()
}

// tracedDo is st.do under a root span per timed op, with the renewals
// the op causes parented on it. A renewal op makes the RemoteAPI call
// itself and hands its id down; an Execute op announces itself to its
// shard's decorator under the renewal it would cause.
func (st *stack) tracedDo(w *workload, spans *spanLog) opFunc {
	var nextOp atomic.Uint64
	if w.kind == opRenew {
		return func(caller int, o op, _ bool) error {
			shard := caller % shards
			tr := st.remotes[shard].(*tracedRemote)
			id := nextOp.Add(1)
			start := time.Now()
			err := st.renewWith(func(slid, lic string) (slremote.Grant, error) { return tr.renewLeaseOp(id, slid, lic) }, shard, o)
			spans.add(id, spanOp, "", start, time.Now())
			return err
		}
	}
	return func(caller int, o op, timed bool) error {
		if !timed {
			return st.execute(caller, o)
		}
		inst := st.instances[o.a]
		tr := st.remotes[inst.shard].(*tracedRemote)
		key := renewKey{inst.svc.SLID(), st.appLicenses[inst.shard][o.b]}
		id := nextOp.Add(1)
		tr.enter(key, id)
		start := time.Now()
		err := st.execute(caller, o)
		spans.add(id, spanOp, "", start, time.Now())
		tr.leave(key, id)
		return err
	}
}

// handshakeProbe dials one leader twice with a fresh channel config:
// the first handshake is cold (quote-verified), the second resumes the
// session the first one's ticket opened.
func handshakeProbe(st *stack) (cold, resumed time.Duration, err error) {
	rc, err := st.newClientChannel("bench-probe")
	if err != nil {
		return 0, 0, err
	}
	// Shard 0 always owns a license: instance 0 lives there.
	shard0License := append(append([]string(nil), st.pops[0].licenses...), st.appLicenses[0]...)[0]
	dial := func() (time.Duration, error) {
		start := time.Now()
		c, err := wire.DialPolicy(st.cluster.Leader(0).Addr(), wire.DefaultTimeout, rc, wire.DefaultRetryPolicy(7))
		if err != nil {
			return 0, err
		}
		// One round trip, so the session ticket has been read off the
		// connection before it closes.
		_, err = c.LicenseInfo(shard0License)
		took := time.Since(start)
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		return took, err
	}
	if cold, err = dial(); err != nil {
		return 0, 0, err
	}
	if resumed, err = dial(); err != nil {
		return 0, 0, err
	}
	if s := rc.Stats(); s.ColdHandshakes != 1 || s.ResumedHandshakes != 1 {
		return 0, 0, fmt.Errorf("handshake probe: %d cold and %d resumed handshakes, want one of each", s.ColdHandshakes, s.ResumedHandshakes)
	}
	return cold, resumed, nil
}

// runTraced builds the observed deployment, runs the traced window,
// and turns counters, spans and the ladder into per-layer metrics.
func (lad *ladder) runTraced(rc runConfig, spans *spanLog, mainS float64, out io.Writer) (*runResult, error) {
	w := rc.w
	budget := int(windowCap(w, mainS)) + w.warmOps
	start := time.Now()
	st, err := newStack(stackOptions{cfg: w.stack, dir: rc.outDir, seed: rc.seed, renewBudget: budget, observe: true, spans: spans})
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer st.close()
	if err := st.warmUp(w, rc.seed); err != nil {
		return nil, err
	}
	setups := []float64{time.Since(start).Seconds()}

	var nodeRegs []*obs.Registry
	for _, o := range st.cluster.ObsTargets() {
		nodeRegs = append(nodeRegs, o.Registry)
	}
	read := func() (client, nodes, clus counters) {
		return readCounters(append(st.clientRegs[:], st.localReg), nil),
			readCounters(nodeRegs, onlyRenewRPCs),
			readCounters([]*obs.Registry{st.clusterReg}, nil)
	}
	managerTokens := func() (n int64) {
		for _, inst := range st.instances {
			for _, m := range inst.mgrs {
				n += m.Stats().TokenRequests
			}
		}
		return n
	}
	rttBefore := st.rttSnapshot()
	c0, n0, k0 := read()
	tok0 := managerTokens()
	lag := startLagSampler(st.clusterReg)
	res := st.window(w, rc.seed, mainS, st.tracedDo(w, spans))
	lagMax := lag.finish()
	c1, n1, k1 := read()
	tok1 := managerTokens()
	client, nodes, clus := c1.since(c0), n1.since(n0), k1.since(k0)
	rtt := st.rttSnapshot()
	rtt.subtract(rttBefore)

	coldMS, resumedMS := 0.0, 0.0
	if cold, resumed, err := handshakeProbe(st); err != nil {
		return nil, err
	} else {
		coldMS, resumedMS = cold.Seconds()*1e3, resumed.Seconds()*1e3
	}
	var handshakes struct{ cold, resumed int64 }
	for _, ch := range st.serverChannels() {
		s := ch.Stats()
		handshakes.cold += s.ColdHandshakes
		handshakes.resumed += s.ResumedHandshakes
	}
	appended := n1.value["store_wal_appends_total"]
	gr, err := st.gate(res.failed)
	if err != nil {
		if res.firstErr != nil {
			err = fmt.Errorf("%w (first op error: %v)", err, res.firstErr)
		}
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	var footprint int64
	for _, inst := range st.instances {
		footprint += inst.svc.TreeFootprint()
	}

	ops := float64(res.ops)
	tokenRequests := client.value["sllocal_requests_total"]
	renewals := float64(rtt.n) // calls through the RemoteAPI seam in the window
	renewalsPerOp := renewals / ops
	tokensPerOp := float64(tok1-tok0) / ops
	renewalsPerToken := ratio(client.value["sllocal_renewals_total"], tokenRequests)
	batch := ratio(nodes.value["slremote_renewals_total"], nodes.value["store_wal_appends_total"])
	handleUS := nodes.histMeanUS("wire_server_rpc_latency_seconds")
	opMeanUS := res.lat.mean() / 1e3

	r := rates{tokensPerOp: tokensPerOp, renewalsPerOp: renewalsPerOp, renewalsPerToken: renewalsPerToken, batch: batch}
	self := lad.selfTimes(w.kind == opExecute, w.stack.audit, r)
	rows := lad.waterfall(w.kind == opExecute, self, r, opMeanUS, res.late.mean()/1e3)
	rowUS := func(layer string) float64 {
		for _, row := range rows {
			if row.Layer == layer {
				return row.US
			}
		}
		return 0
	}

	result := newResult(rc, res, setups, true)
	result.Waterfall = rows
	result.Metrics = map[string]metric{
		"slmanager.self_ns_per_op":        {rowUS("slmanager") * 1e3, "ns"},
		"slmanager.token_requests_per_op": {tokensPerOp, "count"},

		"sllocal.token_p50_us":       {lad.token.p50US, "us"},
		"sllocal.self_us_per_token":  {self.sllocalPerToken, "us"},
		"sllocal.renewals_per_token": {renewalsPerToken, "count"},
		"sllocal.renew_wait_share":   {ratio(rtt.sum, res.lat.mean()*float64(res.attempted())), "ratio"},

		"attest.local_attest_ns": {lad.attestNS, "ns"},

		"leasetree.update_ns":            {lad.tree.meanUS * 1e3, "ns"},
		"leasetree.evictions_per_op":     {client.value["sllocal_tree_evictions_total"] / ops, "count"},
		"leasetree.restores_per_op":      {client.value["sllocal_tree_restores_total"] / ops, "count"},
		"leasetree.footprint_kb":         {float64(footprint) / 1024, "KB"},
		"wire.rtt_p50_us":                {rtt.quantile(0.5) / 1e3, "us"},
		"wire.rtt_mean_us":               {rtt.mean() / 1e3, "us"},
		"wire.rtt_max_ms":                {rtt.quantile(1) / 1e6, "ms"},
		"wire.server_handle_mean_us":     {handleUS, "us"},
		"wire.transit_mean_us":           {transit(rtt.mean()/1e3, handleUS), "us"},
		"wire.self_us_per_op":            {renewalsPerOp * self.wire, "us"},
		"wire.bytes_per_op":              {(client.value["wire_client_bytes_sent_total"] + client.value["wire_client_bytes_received_total"]) / ops, "B"},
		"wire.pool_misses":               {c1.value["wire_client_pool_misses_total"], "count"},
		"wire.redirects":                 {c1.value["wire_client_redirects_total"], "count"},
		"ratls.record_us_per_op":         {renewalsPerOp * self.ratls, "us"},
		"ratls.cold_handshakes":          {float64(handshakes.cold), "count"},
		"ratls.resumed_handshakes":       {float64(handshakes.resumed), "count"},
		"ratls.handshake_ms":             {coldMS, "ms"},
		"ratls.resumed_handshake_ms":     {resumedMS, "ms"},
		"cluster.repl_lag_bytes_max":     {float64(lagMax), "B"},
		"cluster.repl_pulls_per_s":       {clus.value["cluster_repl_pulls_total"] / res.wall.Seconds(), "1/s"},
		"cluster.follower_applied_ratio": {ratio(float64(gr.followerApplied), appended), "ratio"},
		"slremote.renew_p50_us":          {lad.inproc.p50US, "us"},
		"slremote.self_us_per_op":        {renewalsPerOp * self.slremote, "us"},
		"slremote.batch_size_mean":       {batch, "count"},
		"slremote.denials":               {n1.value["slremote_renewals_denied_total"], "count"},
		"store.appends_per_op":           {nodes.value["store_wal_appends_total"] / ops, "count"},
		"store.fsyncs_per_op":            {nodes.count["store_fsync_latency_seconds"] / ops, "count"},
		"store.fsync_mean_us":            {nodes.histMeanUS("store_fsync_latency_seconds"), "us"},
		"store.append_p50_us":            {lad.alone.appendP50US, "us"},
		"store.wal_bytes_per_op":         {nodes.value["store_wal_bytes_total"] / ops, "B"},
		"audit.records_per_op":           {nodes.value["audit_records_total"] / ops, "count"},
		"audit.append_p50_us":            {lad.auditUS, "us"},
		"audit.verify_ms":                {gr.auditVerify.Seconds() * 1e3, "ms"},
		"obs.overhead_ratio":             {float64(res.ops)/res.wall.Seconds()/lad.top.opsPerS - 1, "ratio"},
		"loadgen.late_p99_us":            {res.late.quantile(0.99) / 1e3, "us"},
		"loadgen.offered_per_s":          {float64(res.offered) / res.wall.Seconds(), "1/s"},
		"runtime.cpu_us_per_op":          {lad.top.cpuUSPerOp, "us"},
		"runtime.peak_rss_mb":            {procStatusMB("VmHWM:"), "MB"},
		"runtime.gc_cycles":              {float64(res.after.gcs - res.before.gcs), "count"},
		"runtime.gc_pause_ms_total":      {(res.after.gcPause - res.before.gcPause).Seconds() * 1e3, "ms"},
		"waterfall.unattributed_us":      {rowUS("unattributed"), "us"},
	}
	result.Checks = bypassChecks(w, result.Metrics)

	spanFile := filepath.Join(rc.outDir, "trace-"+w.name+".json")
	if err := spans.writeFile(spanFile); err != nil {
		return nil, err
	}
	printTraceReport(out, result, lad, opMeanUS, res.lat.quantile(0.5)/1e3, spans, spanFile)
	for _, c := range result.Checks {
		if !c.OK {
			return nil, fmt.Errorf("bypass prediction failed: %s: %s", c.Name, c.Detail)
		}
	}
	return result, nil
}

// rates say how often one workload op reaches the deeper layers; they
// are read from the program's counters over the traced window.
type rates struct {
	tokensPerOp      float64 // Service.RequestToken calls per op
	renewalsPerOp    float64 // RemoteAPI.RenewLease calls per op
	renewalsPerToken float64
	batch            float64 // grants per renewal WAL record
}

// selfUS holds layer self times in µs: the SL-Local figure per token
// request, the rest per renewal. Each is the difference between
// adjacent rungs of the ladder.
type selfUS struct {
	sllocalPerToken                     float64
	ratls, wire, slremote, store, audit float64
}

func (lad *ladder) selfTimes(execute, audited bool, r rates) selfUS {
	var s selfUS
	s.ratls = lad.ratls.meanUS - lad.insecure.meanUS
	s.wire = lad.insecure.meanUS - lad.inproc.meanUS
	s.store = lad.alone.appendMeanUS
	if audited {
		// The audit chain is appended to once per grant while the batch
		// holds the server lock, so every caller of a batch waits for
		// all of the batch's audit appends.
		s.audit = r.batch * lad.auditUS
	}
	s.slremote = lad.inproc.meanUS - s.store - s.audit
	if execute {
		s.sllocalPerToken = lad.token.meanUS - lad.attestNS/1e3 - lad.tree.meanUS - r.renewalsPerToken*lad.ratls.meanUS
	}
	return s
}

// waterfall lays the self times out per workload op and closes with the
// remainder against the traced window's mean op time: what the untraced
// ladder does not account for of the traced op (tracing overhead, and
// any queueing the ladder's concurrency does not reproduce).
func (lad *ladder) waterfall(execute bool, s selfUS, r rates, opMeanUS, lateMeanUS float64) []waterfallRow {
	slmanager := 0.0
	if execute {
		slmanager = lad.top.meanUS - r.tokensPerOp*lad.token.meanUS
	}
	rows := []waterfallRow{
		{"slmanager", slmanager},
		{"sllocal", r.tokensPerOp * s.sllocalPerToken},
		{"attest", r.tokensPerOp * lad.attestNS / 1e3},
		{"leasetree", r.tokensPerOp * lad.tree.meanUS},
		{"ratls", r.renewalsPerOp * s.ratls},
		{"wire", r.renewalsPerOp * s.wire},
		{"slremote", r.renewalsPerOp * s.slremote},
		{"store", r.renewalsPerOp * s.store},
		{"audit", r.renewalsPerOp * s.audit},
		{"loadgen", lateMeanUS},
	}
	attributed := 0.0
	for _, row := range rows {
		attributed += row.US
	}
	return append(rows, waterfallRow{"unattributed", opMeanUS - attributed})
}

// transit is round-trip time not spent in the server's handler.
func transit(rttUS, handleUS float64) float64 {
	if rttUS == 0 {
		return 0
	}
	return rttUS - handleUS
}

// rttSnapshot merges the RenewLease timings of every RemoteAPI
// decorator of the deployment.
func (st *stack) rttSnapshot() *hist {
	h := &hist{}
	for s := 0; s < shards; s++ {
		if tr, ok := st.remotes[s].(*tracedRemote); ok {
			h.merge(tr.rtt.snapshot())
		}
	}
	return h
}

// bypassChecks evaluates the predictions README.md makes about which
// layers a workload does not touch. A prediction that fails means the
// workload no longer isolates what it was chosen to isolate.
func bypassChecks(w *workload, m map[string]metric) []check {
	zero := func(name string) check {
		v := m[name].Value
		return check{Name: w.name + ": " + name + " = 0", OK: v == 0, Detail: fmt.Sprintf("measured %g", v)}
	}
	var out []check
	if w.bypassesServer {
		out = append(out, zero("sllocal.renewals_per_token"), zero("wire.bytes_per_op"),
			zero("store.appends_per_op"), zero("audit.records_per_op"))
	}
	if w.stack.sync == store.SyncOff {
		out = append(out, zero("store.fsyncs_per_op"))
	}
	if !w.stack.audit {
		out = append(out, zero("audit.records_per_op"))
	}
	if w.kind == opRenew && !w.open && w.inflight > shards && w.stack.sync == store.SyncBatched {
		v := m["slremote.batch_size_mean"].Value
		out = append(out, check{Name: w.name + ": slremote.batch_size_mean > 1", OK: v > 1, Detail: fmt.Sprintf("measured %.3f", v)})
	}
	if w.stack.budgetFraction > 0 {
		v := m["leasetree.evictions_per_op"].Value
		out = append(out, check{Name: w.name + ": leasetree.evictions_per_op > 0", OK: v > 0, Detail: fmt.Sprintf("measured %.4f", v)})
	}
	v := m["cluster.follower_applied_ratio"].Value
	out = append(out, check{Name: w.name + ": cluster.follower_applied_ratio = 1 after drain", OK: v == 1, Detail: fmt.Sprintf("measured %g", v)})
	return out
}
