package integration

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/audit"
	"repro/internal/chaos"
	"repro/internal/lease"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
	"repro/internal/store"
	"repro/internal/wire"
)

// chaosSeed selects the swarm schedule. A failing run prints its seed;
// rerunning with -chaos.seed=N replays the exact operation and fault
// sequence.
var chaosSeed = flag.Int64("chaos.seed", 1, "seed for TestChaosSwarm's deterministic fault schedule")

const (
	swarmClients   = 4
	swarmSteps     = 220
	swarmRPCWait   = 500 * time.Millisecond // per-roundtrip deadline; bounds Drop stalls
	swarmSnapEvery = 16
)

// chaosDialer is a reconnecting sllocal.RemoteAPI over the chaos-wrapped
// listener: a transport-level failure (dropped reply, cut frame, reset)
// closes the connection so the next call redials — the real SL-Local
// daemon's retry posture, minus retries, which the deterministic schedule
// cannot afford (an op either lands or is charged as a denial). It is safe
// for concurrent use: the pipelined swarm shares the admin dialer across
// client goroutines, so many calls ride one wire connection at once.
type chaosDialer struct {
	h  *swarmHarness
	rc *ratls.Config
	mu sync.Mutex
	c  *wire.Client // guardedby: mu
}

func (d *chaosDialer) client() (*wire.Client, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.c == nil {
		c, err := wire.DialPolicy(d.h.addr, swarmRPCWait, d.rc, wire.DefaultRetryPolicy(time.Now().UnixNano()))
		if err != nil {
			return nil, err
		}
		d.c = c
	}
	return d.c, nil
}

// reset drops the connection; the next call redials the current server.
func (d *chaosDialer) reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.c != nil {
		_ = d.c.Close()
		d.c = nil
	}
}

// after inspects a call's error: a transport failure poisons the stream
// (desync, half frames), so the connection the call used is discarded —
// unless a concurrent caller already replaced it, in which case the new
// connection is left alone. Server-side denials (ErrRemote) leave the
// connection usable.
func (d *chaosDialer) after(c *wire.Client, err error) {
	if err == nil || errors.Is(err, wire.ErrRemote) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.c == c {
		_ = d.c.Close()
		d.c = nil
	}
}

func (d *chaosDialer) InitClient(slid string, quote attest.Quote, m *sgx.Machine) (slremote.InitResult, error) {
	c, err := d.client()
	if err != nil {
		return slremote.InitResult{}, err
	}
	res, err := c.InitClient(slid, quote, m)
	d.after(c, err)
	return res, err
}

func (d *chaosDialer) RenewLease(slid, licenseID string) (slremote.Grant, error) {
	c, err := d.client()
	if err != nil {
		return slremote.Grant{}, err
	}
	g, err := c.RenewLease(slid, licenseID)
	d.after(c, err)
	return g, err
}

func (d *chaosDialer) EscrowRootKey(slid string, key seccrypto.Key) error {
	c, err := d.client()
	if err != nil {
		return err
	}
	err = c.EscrowRootKey(slid, key)
	d.after(c, err)
	return err
}

func (d *chaosDialer) ConsumeReport(slid, licenseID string, units int64) error {
	c, err := d.client()
	if err != nil {
		return err
	}
	err = c.ConsumeReport(slid, licenseID, units)
	d.after(c, err)
	return err
}

func (d *chaosDialer) ReportCrash(slid string) error {
	c, err := d.client()
	if err != nil {
		return err
	}
	err = c.ReportCrash(slid)
	d.after(c, err)
	return err
}

func (d *chaosDialer) SetProfile(slid string, health, reliability, weight float64) error {
	c, err := d.client()
	if err != nil {
		return err
	}
	err = c.SetProfile(slid, health, reliability, weight)
	d.after(c, err)
	return err
}

var _ sllocal.RemoteAPI = (*chaosDialer)(nil)

// swarmClient is one SL-Local machine in the swarm: its untrusted state
// and app enclave persist across service incarnations (restarts and
// crashes), like a real machine's disk does.
type swarmClient struct {
	idx   int
	m     *sgx.Machine
	plat  *attest.Platform
	app   *sgx.Enclave
	state *sllocal.UntrustedState
	conn  *chaosDialer
	svc   *sllocal.Service // nil while the client is down
	slid  string
}

// swarmHarness runs one seeded swarm: a durable SL-Remote behind a chaos
// filesystem and a chaos listener, and a set of SL-Local clients driven
// sequentially through the schedule.
type swarmHarness struct {
	t        *testing.T
	seed     int64
	licenses []string

	fsys     *chaos.FS
	net      *chaos.NetDirector
	stateDir string
	sealKey  seccrypto.Key
	service  *attest.Service

	// srvRC is the server's channel config. It survives restarts on
	// purpose: the session-ticket keys live in it, so clients resume
	// their attested sessions against the recovered incarnation.
	srvRC *ratls.Config

	aud    *audit.Log
	st     *store.Store
	remote *slremote.Server
	srv    *wire.Server
	addr   string
	done   chan struct{}

	admin   *chaosDialer
	clients []*swarmClient

	crashes atomic.Int64
	denials atomic.Int64
}

func (h *swarmHarness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("chaos swarm seed %d (replay: go test -run TestChaosSwarm ./internal/integration -chaos.seed=%d): %s",
		h.seed, h.seed, fmt.Sprintf(format, args...))
}

// boot opens (or re-opens) the durable SL-Remote: audit log on the real
// filesystem, WAL through the chaos filesystem, wire server behind the
// chaos listener. SyncAlways keeps the fault positions deterministic — a
// group-commit timer would race the op sequence. The swarm composes the
// layers itself where every other test goes through cluster.StartNode:
// the fault-injecting filesystem and listener are seams a node has no
// business offering.
func (h *swarmHarness) boot() {
	h.t.Helper()
	aud, err := audit.Open(filepath.Join(h.stateDir, "audit.log"), h.sealKey)
	if err != nil {
		h.fatalf("audit.Open: %v", err)
	}
	st, rec, err := store.Open(store.Options{Dir: h.stateDir, Mode: store.SyncAlways, FS: h.fsys})
	if err != nil {
		h.fatalf("store.Open: %v", err)
	}
	remote, err := slremote.RecoverServer(slremote.DefaultConfig(), h.service, rec, slremote.PersistConfig{
		Log: st, Snap: st, SealKey: h.sealKey, SnapshotEvery: swarmSnapEvery,
	})
	if err != nil {
		h.fatalf("RecoverServer: %v", err)
	}
	remote.AttachAudit(aud)
	srv, err := wire.NewServer(remote, nil, h.srvRC, nil, nil, nil)
	if err != nil {
		h.fatalf("wire.NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.fatalf("Listen: %v", err)
	}
	h.aud, h.st, h.remote, h.srv = aud, st, remote, srv
	h.addr = ln.Addr().String()
	h.done = make(chan struct{})
	go func(done chan struct{}) {
		defer close(done)
		_ = srv.Serve(chaos.WrapListener(ln, h.net))
	}(h.done)
}

// kill stops the server incarnation without a final snapshot, tolerating a
// wedged store (that is the point: recovery has to clean up after it).
func (h *swarmHarness) kill() {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		h.fatalf("wire Shutdown: %v", err)
	}
	<-h.done
	_ = h.st.Close() // may fail on a crashed chaos FS; recovery handles it
	_ = h.aud.Close()
}

// restartServer kills and recovers the server, asserting the recovered
// ledger is bit-identical to the pre-kill state. Stats are excluded: denial
// counters are observability, not ledger state, and are not WAL-logged.
func (h *swarmHarness) restartServer(step int) {
	h.t.Helper()
	want := h.remote.ExportState()
	want.Stats = slremote.ServerStats{}
	h.kill()
	h.fsys.Revive()
	h.boot()
	got := h.remote.ExportState()
	got.Stats = slremote.ServerStats{}
	if !reflect.DeepEqual(got, want) {
		h.fatalf("step %d: recovered state differs from pre-kill state\n got: %+v\nwant: %+v", step, got, want)
	}
	// Every open connection points at the dead listener; drop them so the
	// next call redials, in a fixed order to keep conn naming stable.
	h.admin.reset()
	for _, c := range h.clients {
		c.conn.reset()
	}
}

// ensureClient brings a down client up (fresh init, or re-init after a
// crash or restart) and asserts the single-use escrow rule: after any
// successful init the server must no longer hold a key for this SLID.
func (h *swarmHarness) ensureClient(c *swarmClient) error {
	h.t.Helper()
	if c.svc != nil {
		return nil
	}
	svc, err := sllocal.New(sllocal.Config{TokenBatch: 8}, sllocal.Deps{
		Machine: c.m, Platform: c.plat, Remote: c.conn, State: c.state,
	})
	if err != nil {
		h.fatalf("sllocal.New(client %d): %v", c.idx, err)
	}
	if err := svc.Init(); err != nil {
		return err
	}
	c.svc = svc
	c.slid = svc.SLID()
	if st := h.remote.ExportState(); st.Clients[c.slid].HasEscrow {
		h.fatalf("client %d (%s): escrowed key not released on init (single-use violated)", c.idx, c.slid)
	}
	return nil
}

// crashClient destroys the client's enclave with nothing escrowed and
// reports the crash (best effort: the report itself can be eaten by a net
// fault, in which case the next init applies the pessimistic forfeit).
func (h *swarmHarness) crashClient(c *swarmClient) {
	if c.svc != nil {
		c.svc.Crash()
		c.svc = nil
	}
	c.conn.reset()
	if c.slid != "" {
		_ = h.admin.ReportCrash(c.slid)
	}
	h.crashes.Add(1)
}

func (h *swarmHarness) quiesce(step int) {
	h.t.Helper()
	if err := chaos.CheckConservation(h.remote.ExportState()); err != nil {
		h.fatalf("step %d: %v", step, err)
	}
	if err := h.aud.Verify(); err != nil {
		h.fatalf("step %d: audit chain broken: %v", step, err)
	}
}

func (h *swarmHarness) runStep(i int, st chaos.Step) {
	h.t.Helper()
	for _, f := range st.FSFaults {
		h.fsys.Arm(f)
	}
	for _, f := range st.NetFaults {
		h.net.Arm(f)
	}
	lic := h.licenses[i%len(h.licenses)]
	switch st.Op {
	case chaos.OpToken:
		c := h.clients[st.Client]
		if err := h.ensureClient(c); err != nil {
			h.denials.Add(1)
			return
		}
		tok, err := c.svc.RequestToken(c.app, lic)
		if err != nil {
			h.denials.Add(1)
			return
		}
		for tok.Use() {
		}
	case chaos.OpConsume:
		c := h.clients[st.Client]
		if err := h.ensureClient(c); err != nil {
			h.denials.Add(1)
			return
		}
		if err := h.admin.ConsumeReport(c.slid, lic, st.Units); err != nil {
			h.denials.Add(1)
		}
	case chaos.OpProfile:
		c := h.clients[st.Client]
		if err := h.ensureClient(c); err != nil {
			h.denials.Add(1)
			return
		}
		_ = h.admin.SetProfile(c.slid, st.Health, st.Reliability, st.Weight)
	case chaos.OpClientRestart:
		c := h.clients[st.Client]
		if c.svc != nil {
			if err := c.svc.Shutdown(); err != nil {
				// Escrow unreachable mid-shutdown: the machine is now in an
				// undefined state, which in this model is a crash.
				h.crashClient(c)
				return
			}
			c.svc = nil
		}
		if err := h.ensureClient(c); err != nil {
			h.denials.Add(1)
		}
	case chaos.OpClientCrash:
		h.crashClient(h.clients[st.Client])
	case chaos.OpServerRestart:
		h.restartServer(i)
	case chaos.OpQuiesce:
		h.quiesce(i)
	default:
		h.fatalf("step %d: unknown op %q", i, st.Op)
	}
}

// swarmChanCode is the channel enclave's code identity, shared by every
// swarm endpoint; one trusted measurement covers them all.
var swarmChanCode = []byte("swarm-chan")

// channelOn mints an attested channel config for an existing platform: a
// channel enclave on m whose measurement the harness service trusts. The
// handshake deadline matches the RPC deadline so a dropped TLS flight
// costs one bounded wait, not DefaultHandshakeTimeout.
func (h *swarmHarness) channelOn(m *sgx.Machine, plat *attest.Platform, name string) *ratls.Config {
	h.t.Helper()
	e, err := m.CreateEnclave(name+"-chan", swarmChanCode, 0)
	if err != nil {
		h.fatalf("channel enclave %s: %v", name, err)
	}
	h.service.TrustMeasurement(e.Measurement())
	cfg, err := ratls.New(ratls.Options{
		Platform: plat, Enclave: e, Verifier: h.service,
		HandshakeTimeout: swarmRPCWait,
	})
	if err != nil {
		h.fatalf("ratls.New(%s): %v", name, err)
	}
	return cfg
}

// newChannel is channelOn plus a fresh machine and registered platform,
// for endpoints (server, admin) that have no swarm machine of their own.
func (h *swarmHarness) newChannel(name string) *ratls.Config {
	h.t.Helper()
	m, err := sgx.NewMachine(sgx.MachineConfig{Name: name, EPCBytes: 1 << 20})
	if err != nil {
		h.fatalf("NewMachine %s: %v", name, err)
	}
	plat, err := attest.NewPlatform(name, m)
	if err != nil {
		h.fatalf("NewPlatform %s: %v", name, err)
	}
	h.service.RegisterPlatform(plat)
	return h.channelOn(m, plat, name)
}

// newSwarm builds a fully booted swarm: durable SL-Remote behind the chaos
// listener, licenses registered, every client machine attested and wired
// through its own chaosDialer. With attested set, every connection is an
// ratls channel (and the mid-handshake fault probes run before return).
func newSwarm(t *testing.T, seed int64, attested bool) *swarmHarness {
	t.Helper()
	h := &swarmHarness{
		t:        t,
		seed:     seed,
		licenses: []string{"lic-a", "lic-b"},
		fsys:     chaos.NewFS(nil),
		net:      chaos.NewNetDirector(),
		stateDir: t.TempDir(),
		service:  attest.NewService(),
	}
	var err error
	if h.sealKey, err = seccrypto.NewKey(nil); err != nil {
		t.Fatal(err)
	}
	if attested {
		h.srvRC = h.newChannel("swarm-server")
	} else {
		h.srvRC = ratls.Insecure()
	}
	h.boot()
	if err := h.remote.RegisterLicense("lic-a", lease.CountBased, 6000); err != nil {
		h.fatalf("RegisterLicense: %v", err)
	}
	if err := h.remote.RegisterLicense("lic-b", lease.CountBased, 3000); err != nil {
		h.fatalf("RegisterLicense: %v", err)
	}
	h.admin = &chaosDialer{h: h, rc: ratls.Insecure()}
	if attested {
		h.admin.rc = h.newChannel("swarm-admin")
	}

	for i := 0; i < swarmClients; i++ {
		m, err := sgx.NewMachine(sgx.MachineConfig{Name: fmt.Sprintf("swarm-%d", i), EPCBytes: 8 << 20})
		if err != nil {
			h.fatalf("NewMachine %d: %v", i, err)
		}
		plat, err := attest.NewPlatform(fmt.Sprintf("swarm-%d", i), m)
		if err != nil {
			h.fatalf("NewPlatform %d: %v", i, err)
		}
		h.service.RegisterPlatform(plat)
		probe, err := m.CreateEnclave("probe", sllocal.EnclaveCodeIdentity, 0)
		if err != nil {
			h.fatalf("probe %d: %v", i, err)
		}
		h.service.TrustMeasurement(probe.Measurement())
		probe.Destroy()
		app, err := m.CreateEnclave(fmt.Sprintf("app-%d", i), []byte("swarm-app"), 0)
		if err != nil {
			h.fatalf("app %d: %v", i, err)
		}
		cliRC := ratls.Insecure()
		if attested {
			cliRC = h.channelOn(m, plat, fmt.Sprintf("swarm-%d", i))
		}
		h.clients = append(h.clients, &swarmClient{
			idx: i, m: m, plat: plat, app: app,
			state: &sllocal.UntrustedState{},
			conn:  &chaosDialer{h: h, rc: cliRC},
		})
	}

	if attested {
		// Mid-handshake fault: the server's first TLS flight to client 0
		// dies on an armed reset. The dial layer must count the failure
		// and absorb it with its one bounded-backoff retry — init still
		// succeeds.
		h.net.Arm(chaos.ConnFault{Kind: chaos.Reset})
		if err := h.ensureClient(h.clients[0]); err != nil {
			h.fatalf("init through a mid-handshake reset was not retried: %v", err)
		}
		if st := h.clients[0].conn.rc.Stats(); st.HandshakeFailures == 0 || st.ColdHandshakes == 0 {
			h.fatalf("mid-handshake reset not reflected in channel stats: %+v", st)
		}
		// Mid-record fault: one TLS record to the admin is corrupted, so
		// its MAC fails. The error must surface as a transport failure
		// (poisoning only that connection), never a panic or a decoded
		// phantom reply.
		if err := h.admin.SetProfile(h.clients[0].slid, 0.9, 0.9, 1.0); err != nil {
			h.fatalf("admin warm-up SetProfile: %v", err)
		}
		h.net.Arm(chaos.ConnFault{Kind: chaos.Corrupt})
		err := h.admin.SetProfile(h.clients[0].slid, 0.9, 0.9, 1.0)
		if err == nil {
			h.fatalf("corrupted TLS record decoded as a valid reply")
		}
		if errors.Is(err, wire.ErrRemote) {
			h.fatalf("corrupted TLS record surfaced as a server denial: %v", err)
		}
	}
	return h
}

// runSwarm executes one full seeded swarm sequentially and returns the
// combined fault trace (filesystem events, then network events).
func runSwarm(t *testing.T, seed int64, attested bool) []chaos.Event {
	t.Helper()
	h := newSwarm(t, seed, attested)
	sched := chaos.NewSchedule(seed, swarmClients, swarmSteps)
	for i, st := range sched.Steps {
		h.runStep(i, st)
	}
	return h.finish(len(sched.Steps), attested)
}

// finish runs the end-of-swarm accounting — invariants hold, the required
// faults fired, the swarm really was a swarm — then kills the server and
// returns the fault trace.
func (h *swarmHarness) finish(steps int, attested bool) []chaos.Event {
	h.t.Helper()
	t := h.t
	h.quiesce(steps)
	trace := append(h.fsys.Trace(), h.net.Trace()...)
	var torn, cut int
	for _, ev := range trace {
		switch ev.Kind {
		case chaos.TornWrite:
			torn++
		case chaos.Cut:
			cut++
		}
	}
	if torn == 0 {
		h.fatalf("no torn WAL write fired (trace: %v)", trace)
	}
	if cut == 0 {
		h.fatalf("no mid-envelope connection cut fired (trace: %v)", trace)
	}
	if h.crashes.Load() == 0 {
		h.fatalf("no client crash executed")
	}
	if h.aud.Len() == 0 {
		h.fatalf("empty audit chain after %d steps", steps)
	}
	if attested {
		st := h.srvRC.Stats()
		if st.ColdHandshakes == 0 || st.QuoteVerifications == 0 {
			h.fatalf("attested swarm performed no quote-verified handshakes: %+v", st)
		}
		// The structural server restart resets every connection, and the
		// ticket keys survive in srvRC — so at least one reconnect must
		// have resumed, and resumption must have skipped re-attestation.
		if st.ResumedHandshakes == 0 {
			h.fatalf("no resumed handshake across reconnects: %+v", st)
		}
		if st.QuoteVerifications >= st.ColdHandshakes+st.ResumedHandshakes {
			h.fatalf("resumed handshakes did not skip quote verification: %+v", st)
		}
		if st.HandshakeFailures == 0 {
			h.fatalf("chaos faults produced no counted handshake failure: %+v", st)
		}
		t.Logf("attested channel: %+v", st)
	}
	t.Logf("chaos swarm seed %d: %d steps, %d denials, %d client crashes, %d fault events",
		h.seed, steps, h.denials.Load(), h.crashes.Load(), len(trace))

	h.kill()
	return trace
}

// TestChaosSwarm drives a swarm of SL-Local clients through a seeded
// schedule of renewals, consume reports, profile changes, crashes, and
// server restarts while injected faults tear WAL frames, cut connections
// mid-envelope, and fail fsyncs — asserting at every quiesce point that
// license units are conserved, the audit chain verifies, and recovery
// reproduces the exact pre-kill ledger. The same seed must produce the
// identical fault trace: the second run replays the first.
func TestChaosSwarm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos swarm takes seconds of injected stalls")
	}
	seed := *chaosSeed
	tr1 := runSwarm(t, seed, false)
	tr2 := runSwarm(t, seed, false)
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatalf("seed %d is not reproducible: fault traces differ\nrun 1: %v\nrun 2: %v", seed, tr1, tr2)
	}
}

// TestChaosSwarmPipelined runs the seeded swarm with the schedule's
// clients driven concurrently: between global barriers (server restarts
// and quiesce points) every client executes its own steps in order on its
// own goroutine, while admin traffic (consume reports, profile changes,
// crash reports) from all of them shares ONE dialer — so many requests
// pipeline on a single wire connection under live chaos faults. The same
// conservation, audit, and fault-coverage assertions as the sequential
// swarm must hold; trace identity is not asserted (completion order is
// concurrent by design). Run under -race in CI.
func TestChaosSwarmPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos swarm takes seconds of injected stalls")
	}
	seed := *chaosSeed
	h := newSwarm(t, seed, false)
	sched := chaos.NewSchedule(seed, swarmClients, swarmSteps)

	// peak tracks the most steps ever in flight at once: if it never
	// reaches 2, the "pipelined" swarm silently degenerated to lock-step
	// and the test is not testing what it claims.
	var inFlight, peak atomic.Int64
	runWindow := func(lo, hi int) {
		if lo >= hi {
			return
		}
		// Partition the window by client, preserving each client's own step
		// order: a client's crash must not overtake its token request.
		lanes := make(map[int][]int)
		var order []int
		for i := lo; i < hi; i++ {
			cl := sched.Steps[i].Client
			if _, ok := lanes[cl]; !ok {
				order = append(order, cl)
			}
			lanes[cl] = append(lanes[cl], i)
		}
		var wg sync.WaitGroup
		for _, cl := range order {
			idxs := lanes[cl]
			wg.Add(1)
			go func(idxs []int) {
				defer wg.Done()
				for _, i := range idxs {
					cur := inFlight.Add(1)
					for {
						p := peak.Load()
						if cur <= p || peak.CompareAndSwap(p, cur) {
							break
						}
					}
					h.runStep(i, sched.Steps[i])
					inFlight.Add(-1)
				}
			}(idxs)
		}
		wg.Wait()
	}

	start := 0
	for i, st := range sched.Steps {
		if st.Op == chaos.OpServerRestart || st.Op == chaos.OpQuiesce {
			runWindow(start, i)
			h.runStep(i, st) // global barrier op, on the test goroutine
			start = i + 1
		}
	}
	runWindow(start, len(sched.Steps))

	if got := peak.Load(); got < 2 {
		t.Fatalf("peak in-flight steps = %d, want >= 2 (swarm ran lock-step)", got)
	}
	h.finish(len(sched.Steps), false)
}

// TestChaosSwarmAttested runs the same seeded swarm with every connection
// upgraded to the attested ratls channel. The chaos faults now land on TLS
// records and handshake flights instead of plaintext envelopes; the run
// must still conserve license units and keep the audit chain intact, with
// handshake failures counted and absorbed by the dial retry — never a
// panic. Trace identity is not asserted: TLS adds timing-dependent writes
// (session tickets, alerts) that shift fault positions between runs.
func TestChaosSwarmAttested(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos swarm takes seconds of injected stalls")
	}
	runSwarm(t, *chaosSeed, true)
}
