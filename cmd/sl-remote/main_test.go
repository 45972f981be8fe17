package main

import (
	"bytes"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/audit"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/ratls"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
	"repro/internal/wire"
)

const (
	fleetSecret = "fleet-provisioning-secret"
	sealSecret  = "seal"
	waitLimit   = 30 * time.Second
)

// daemon is one sl-remote run in-process: run on its own FlagSet, with a
// stop channel where the binary has SIGINT/SIGTERM.
type daemon struct {
	t    *testing.T
	stop chan os.Signal
	up   chan *cluster.Node
	done chan error
}

func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{t: t, stop: make(chan os.Signal, 1), up: make(chan *cluster.Node, 1), done: make(chan error, 1)}
	go func() {
		d.done <- run(flag.NewFlagSet("sl-remote", flag.ContinueOnError), args, d.stop, func(n *cluster.Node) { d.up <- n })
	}()
	return d
}

// serving waits for the daemon to turn ready and returns its node.
func (d *daemon) serving() *cluster.Node {
	d.t.Helper()
	select {
	case n := <-d.up:
		return n
	case err := <-d.done:
		d.t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(waitLimit):
		d.t.Fatal("daemon did not start serving")
	}
	return nil
}

// exited waits for run to return, which it must do cleanly.
func (d *daemon) exited() {
	d.t.Helper()
	select {
	case err := <-d.done:
		if err != nil {
			d.t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(waitLimit):
		d.t.Fatal("daemon did not exit")
	}
}

func (d *daemon) sigterm() {
	d.t.Helper()
	d.stop <- syscall.SIGTERM
	d.exited()
}

// freeAddrs reserves n distinct loopback addresses for flags that must
// name one before the daemon binds it (-peer, -follow, a standby's
// -metrics-addr). Every listener stays open until all n are picked, so
// the kernel cannot hand one port out twice.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// dialAttested connects the way an sl-local daemon provisioned with the
// fleet secret does.
func dialAttested(t *testing.T, name, addr string) *wire.Client {
	t.Helper()
	m, err := sgx.NewMachine(sgx.MachineConfig{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ratls.NewProvisioned(name, m, []byte(fleetSecret), sllocal.EnclaveCodeIdentity, slremote.EnclaveCodeIdentity)
	if err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(addr, rc)
	if err != nil {
		t.Fatalf("Dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// initAndRenew registers a new client and renews license n times.
func initAndRenew(t *testing.T, c *wire.Client, license string, n int) string {
	t.Helper()
	res, err := c.InitClient("", attest.Quote{}, nil)
	if err != nil {
		t.Fatalf("InitClient: %v", err)
	}
	for i := 0; i < n; i++ {
		if g, err := c.RenewLease(res.SLID, license); err != nil || g.Units <= 0 {
			t.Fatalf("RenewLease %d: %+v, %v", i, g, err)
		}
	}
	return res.SLID
}

// withoutStats is the state a restart or a failover must reproduce:
// everything but the per-process counters.
func withoutStats(st slremote.State) slremote.State {
	st.Stats = slremote.ServerStats{}
	return st
}

// auditOps opens the (closed) chain at path, verifies it, and counts its
// records by op.
func auditOps(t *testing.T, path string) (n uint64, ops map[string]int) {
	t.Helper()
	key, err := loadSealKey(sealSecret, "")
	if err != nil {
		t.Fatal(err)
	}
	a, err := audit.Open(path, key)
	if err != nil {
		t.Fatalf("audit.Open: %v", err)
	}
	defer a.Close()
	if err := a.Verify(); err != nil {
		t.Fatalf("audit chain: %v", err)
	}
	ops = make(map[string]int)
	for _, rec := range a.Tail(0) {
		ops[rec.Op]++
	}
	return a.Len(), ops
}

func flightKinds(t *testing.T, stateDir string) map[string]int {
	t.Helper()
	dump, err := fleet.ReadEvents(filepath.Join(stateDir, "flight.log"))
	if err != nil {
		t.Fatalf("flight dump: %v", err)
	}
	kinds := make(map[string]int)
	for _, e := range dump.Events {
		kinds[e.Name]++
	}
	return kinds
}

// get fetches one path of an observability endpoint, waiting for the
// endpoint to come up.
func get(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	for deadline := time.Now().Add(waitLimit); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			if time.Now().After(deadline) {
				t.Fatalf("GET %s: %v", path, err)
			}
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, body
	}
}

// metric reads one series off an endpoint's export exposition (0 when
// absent).
func metric(t *testing.T, addr, name string, labels map[string]string) float64 {
	t.Helper()
	_, body := get(t, addr, "/metrics?format=export")
	fams, err := obs.ReadExport(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("metrics export: %v", err)
	}
	return obs.Flatten(fams).Get(name, labels)
}

// eventually polls cond, which no event announces, until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(waitLimit); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDurableLeaderRestart boots the daemon on a state directory, drives
// it over the attested channel, stops it and boots it again with the same
// command line: the second incarnation holds the first one's state and
// continues its audit chain.
func TestDurableLeaderRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-ratls-secret", fleetSecret,
		"-state-dir", dir, "-seal-secret", sealSecret, "-snapshot-every", "4",
		"-license", "demo:count:100000", "-license", "seats:perpetual:3"}

	d1 := startDaemon(t, args...)
	n1 := d1.serving()
	c1 := dialAttested(t, "local-1", n1.Addr())
	slid := initAndRenew(t, c1, "demo", 3)
	want := n1.Remote().ExportState()
	d1.sigterm()
	len1, ops := auditOps(t, filepath.Join(dir, "audit.log"))
	if ops[audit.OpInit] != 1 || ops[audit.OpRenew] != 3 {
		t.Fatalf("first incarnation's audit ops: %v", ops)
	}
	if kinds := flightKinds(t, dir); kinds["slremote.shutdown"] != 1 || kinds["wire.drain"] != 1 {
		t.Errorf("persisted flight dump: %v, want the shutdown and the drain", kinds)
	}

	d2 := startDaemon(t, args...)
	n2 := d2.serving()
	if got := n2.Remote().ExportState(); !reflect.DeepEqual(withoutStats(got), withoutStats(want)) {
		t.Errorf("recovered state differs\n got: %+v\nwant: %+v", got, want)
	}
	c2 := dialAttested(t, "local-1", n2.Addr())
	if g, err := c2.RenewLease(slid, "demo"); err != nil || g.Units <= 0 {
		t.Fatalf("RenewLease after restart: %+v, %v", g, err)
	}
	d2.sigterm()
	len2, ops := auditOps(t, filepath.Join(dir, "audit.log"))
	if len2 <= len1 || ops[audit.OpRenew] != 4 {
		t.Errorf("audit chain did not continue across the restart: %d -> %d records, ops %v", len1, len2, ops)
	}
}

// TestLicenseFlagsReachAuditChain pins that a license registered from a
// -license flag is a decision of this process like any other: it puts an
// issue record on the chain, once — the restart that finds the license in
// recovered state issues nothing.
func TestLicenseFlagsReachAuditChain(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-insecure", "-state-dir", dir, "-seal-secret", sealSecret,
		"-license", "demo:count:1000", "-license", "pro:perpetual:2"}
	for boot := 1; boot <= 2; boot++ {
		d := startDaemon(t, args...)
		d.serving()
		d.sigterm()
		if _, ops := auditOps(t, filepath.Join(dir, "audit.log")); ops[audit.OpIssue] != 2 {
			t.Fatalf("after boot %d: %d issue records on the chain, want 2 (ops: %v)", boot, ops[audit.OpIssue], ops)
		}
	}
}

// TestInMemoryLeader runs the daemon without -state-dir: it serves, and
// leaves nothing behind.
func TestInMemoryLeader(t *testing.T) {
	d := startDaemon(t, "-addr", "127.0.0.1:0", "-insecure", "-license", "demo:count:1000")
	n := d.serving()
	c, err := wire.Dial(n.Addr(), ratls.Insecure())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slid := initAndRenew(t, c, "demo", 2)
	if got := n.Remote().ExportState().Clients[slid].Outstanding["demo"]; got <= 0 {
		t.Errorf("outstanding units after two renewals = %d", got)
	}
	if _, err := c.ReplPull(0, 0, 0); err == nil {
		t.Error("an in-memory server answered repl_pull: it has no WAL to ship")
	}
	d.sigterm()
}

// standbyPair is a durable one-shard leader and a standby following it
// over the attested channel, the standby with an observability endpoint.
type standbyPair struct {
	leader, standby                      *daemon
	leaderNode                           *cluster.Node
	standbyAddr, metricsAddr, standbyDir string
}

func startStandbyPair(t *testing.T, standbyFlags ...string) standbyPair {
	t.Helper()
	addrs := freeAddrs(t, 3)
	leaderAddr := addrs[0]
	p := standbyPair{standbyAddr: addrs[1], metricsAddr: addrs[2], standbyDir: t.TempDir()}
	p.leader = startDaemon(t, "-addr", leaderAddr, "-shards", "1", "-peer", leaderAddr, "-ratls-secret", fleetSecret,
		"-state-dir", t.TempDir(), "-seal-secret", sealSecret, "-license", "demo:count:100000")
	p.leaderNode = p.leader.serving()
	p.standby = startDaemon(t, append([]string{"-addr", p.standbyAddr, "-follow", leaderAddr, "-ratls-secret", fleetSecret,
		"-state-dir", p.standbyDir, "-seal-secret", sealSecret, "-metrics-addr", p.metricsAddr}, standbyFlags...)...)
	return p
}

// TestStandbyPromotes kills a leader under a -follow standby: the
// standby promotes, holds the state the leader shipped, serves the next
// renewal in a new epoch, and from then on is a leader like any other —
// ready, rotating session tickets, draining on SIGTERM.
func TestStandbyPromotes(t *testing.T) {
	p := startStandbyPair(t, "-promote-after", "100ms", "-ratls-ticket-rotate", "20ms")
	ln, metricsAddr := p.leaderNode, p.metricsAddr
	slid := initAndRenew(t, dialAttested(t, "local-1", ln.Addr()), "demo", 3)
	appended := ln.Obs().Registry.Snapshot()[obs.Key("store_wal_appends_total", nil)]
	eventually(t, "the standby to replicate the leader's WAL", func() bool {
		return metric(t, metricsAddr, "cluster_repl_applied_records_total", map[string]string{"shard": "0"}) == appended
	})
	if code, _ := get(t, metricsAddr, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("standby /readyz = %d before promotion, want 503", code)
	}
	want := ln.Remote().ExportState()

	ln.Kill() // no drain, no final snapshot: the leader just stops answering
	p.leader.exited()
	sn := p.standby.serving()
	if sn.Addr() != p.standbyAddr {
		t.Errorf("promoted node serves on %s, want -addr %s", sn.Addr(), p.standbyAddr)
	}
	got := sn.Remote().ExportState()
	if !reflect.DeepEqual(withoutStats(got), withoutStats(want)) {
		t.Errorf("promoted state differs from the dead leader's\n got: %+v\nwant: %+v", got, want)
	}
	if code, _ := get(t, metricsAddr, "/readyz"); code != http.StatusOK {
		t.Errorf("promoted /readyz = %d, want 200", code)
	}
	if epoch := metric(t, metricsAddr, "cluster_shard_epoch", map[string]string{"shard": "0"}); epoch != 2 {
		t.Errorf("promoted shard epoch = %v, want 2", epoch)
	}
	if g, err := dialAttested(t, "local-1", sn.Addr()).RenewLease(slid, "demo"); err != nil || g.Units <= 0 {
		t.Fatalf("RenewLease on the promoted standby: %+v, %v", g, err)
	}
	if err := chaos.CheckConservationAll(map[string]int64{"demo": 100000}, sn.Remote().ExportState()); err != nil {
		t.Errorf("conservation after failover: %v", err)
	}
	eventually(t, "a session-ticket rotation on the promoted node", func() bool {
		return metric(t, metricsAddr, "ratls_ticket_rotations_total", nil) > 0
	})

	p.standby.sigterm()
	kinds := flightKinds(t, p.standbyDir)
	for _, kind := range []string{"failover.probe_timeout", "failover.drain", "failover.promote", "cluster.epoch_bump", "slremote.shutdown"} {
		if kinds[kind] != 1 {
			t.Errorf("flight dump has %d %s events, want 1 (all: %v)", kinds[kind], kind, kinds)
		}
	}
}

// TestStandbyIsADaemonBeforeItPromotes pins what follower mode used to
// drop: -pprof and /audit are mounted on a standby's endpoint, and a
// standby stopped before promoting persists its flight dump like every
// other exit path.
func TestStandbyIsADaemonBeforeItPromotes(t *testing.T) {
	p := startStandbyPair(t, "-pprof")
	for _, path := range []string{"/debug/pprof/cmdline", "/audit?n=1", "/events"} {
		if code, _ := get(t, p.metricsAddr, path); code != http.StatusOK {
			t.Errorf("standby GET %s = %d, want 200", path, code)
		}
	}
	p.standby.sigterm()
	if _, err := fleet.ReadEvents(filepath.Join(p.standbyDir, "flight.log")); err != nil {
		t.Errorf("standby stopped before promoting left no flight dump: %v", err)
	}
	select {
	case n := <-p.standby.up:
		t.Errorf("stopped standby served as %s", n.Addr())
	default:
	}
	p.leader.sigterm()
}

// TestFlagErrors: a command line that cannot work is refused before
// anything is opened or bound.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct{ want, args string }{
		{"attested by default", "-addr 127.0.0.1:0"},
		{"-follow requires -state-dir", "-follow 127.0.0.1:1 -insecure"},
		{"require -seal-secret", "-insecure -state-dir " + t.TempDir()},
		{"needs exactly 2 -peer flags", "-insecure -shards 2 -peer a:1"},
		{"duplicate id", "-insecure -license a:count:1 -license a:count:2"},
	} {
		err := run(flag.NewFlagSet("sl-remote", flag.ContinueOnError), strings.Fields(tc.args), nil, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%s) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
