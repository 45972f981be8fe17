// Command sl-remote runs the SecureLease license server (SL-Remote) as a
// TCP daemon. SL-Local daemons on client machines connect to it for
// initialization (remote attestation + SLID assignment), lease renewal
// (Algorithm 1), and root-key escrow.
//
// The wire channel is attested by default: clients connect over RA-TLS,
// with both daemons deriving channel credentials from a shared
// provisioning secret (-ratls-secret or -ratls-secret-file, same value
// on every daemon). Pass -insecure to serve explicit plaintext instead.
//
// Licenses can be pre-registered at startup with repeated -license flags:
//
//	sl-remote -addr :7600 -ratls-secret swarm -license demo:count:100000 -license pro:perpetual:1
//
// With -state-dir the server becomes durable: every state mutation is
// write-ahead-logged, snapshots compact the log, and a restart recovers
// the full license ledger, SLID registry, and (sealed) root-key escrow
// vault from disk:
//
//	sl-remote -addr :7600 -state-dir /var/lib/sl-remote -seal-secret-file /etc/sl-remote/seal \
//	          -fsync batched -snapshot-every 1024 -license demo:count:100000
//
// SIGINT/SIGTERM drain in-flight requests, take a final snapshot, and
// exit cleanly.
//
// # Sharded clusters
//
// A fleet of sl-remote daemons can split the license hash space. Every
// daemon gets the same -shards count and -peer list (leader addresses in
// shard order) plus its own -shard-index; requests for licenses owned by
// another shard are answered with a not_leader redirect that sl-local
// clients follow transparently:
//
//	sl-remote -addr :7600 -shards 2 -shard-index 0 -peer host-a:7600 -peer host-b:7600 ...
//	sl-remote -addr :7600 -shards 2 -shard-index 1 -peer host-a:7600 -peer host-b:7600 ...
//
// With -state-dir, a sharded daemon also serves its WAL as a replication
// stream, so a standby started with -follow tails it and keeps a warm
// copy of the shard's state:
//
//	sl-remote -addr :7601 -follow host-a:7600 -shards 2 -shard-index 0 \
//	          -peer host-a:7600 -peer host-b:7600 -state-dir /var/lib/sl-remote ...
//
// The follower probes its leader; once the leader stays unreachable for
// -promote-after, the follower finishes replaying whatever WAL was
// shipped, promotes itself onto -state-dir, and starts serving the
// shard's hash range in a new epoch. (The routing directory is
// per-process in this reproduction — production would share it through a
// coordination service — so peers learn of the promotion by restarting
// with an updated -peer list.)
//
// # Composition
//
// The daemon composes nothing itself. store → recovery → audit chain →
// wire server → shard gate → replication source → observability →
// listener → drain/snapshot/close is cluster.Node, the same composition
// the tests exercise and bench/ measures, whether the node started as a
// leader or promoted from a standby. What stays here is what only a
// process has: flags, -license pre-registration, readiness, session-ticket
// rotation, and signals.
package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/attest"
	"repro/internal/audit"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
	"repro/internal/store"
)

type stringFlags []string

func (l *stringFlags) String() string { return strings.Join(*l, ",") }
func (l *stringFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(flag.CommandLine, os.Args[1:], stop, nil); err != nil {
		cli.Fatalf("sl-remote: %v", err)
	}
}

// run is the daemon's whole life, leader and standby alike: parse flags,
// bring observability up, serve through one cluster.Node until stop
// fires, drain, snapshot. serving (nil outside tests) is handed the node
// at the moment /readyz turns 200.
func run(fs *flag.FlagSet, args []string, stop <-chan os.Signal, serving func(*cluster.Node)) error {
	var (
		addr        = fs.String("addr", "127.0.0.1:7600", "listen address")
		metricsAddr = fs.String("metrics-addr", "", "observability endpoint address (/metrics, /healthz, /readyz, /trace, /events, /audit); empty disables")
		pprofOn     = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the observability endpoint")
		traceBuffer = fs.Int("trace-buffer", 4096, "span ring-buffer capacity; /trace marks the dump truncated once the ring wraps")

		d        = fs.Float64("d", 4, "Algorithm 1 scale-down factor D (paper: 4)")
		th       = fs.Float64("th", 0.9, "health threshold T_H (paper: 0.9)")
		beta     = fs.Float64("beta", 0.01, "initial beta (paper: 0.01)")
		tau      = fs.Float64("tau", 0.10, "expected-loss bound as fraction of TG (paper: 0.10)")
		open     = fs.Bool("open-attestation", true, "accept any platform/measurement (demo mode; disable to require explicit enrollment)")
		licenses stringFlags

		shards       = fs.Int("shards", 1, "total shard count of the cluster this server belongs to (1: unsharded)")
		shardIndex   = fs.Int("shard-index", 0, "this server's shard index in [0, shards)")
		peers        stringFlags
		follow       = fs.String("follow", "", "follower mode: tail this shard leader's WAL over the wire and promote to serving leader if it dies (requires -state-dir)")
		promoteAfter = fs.Duration("promote-after", 5*time.Second, "follower mode: promote once the leader has been unreachable this long")

		stateDir       = fs.String("state-dir", "", "directory for the durable state (WAL + snapshots); empty runs in-memory only")
		fsync          = fs.String("fsync", "batched", "WAL durability: always (fsync per record), batched (group commit), off (no fsync)")
		snapshotEvery  = fs.Int("snapshot-every", 1024, "take a snapshot and compact the WAL after this many logged records; 0 snapshots only at shutdown")
		sealSecret     = fs.String("seal-secret", "", "secret sealing escrowed root keys and snapshots on disk (stands in for the SGX sealing key; required with -state-dir)")
		sealSecretFile = fs.String("seal-secret-file", "", "read the seal secret from this file instead of the command line")
		auditFile      = fs.String("audit-file", "", "tamper-evident lease audit log path, a store directory (defaults to <state-dir>/audit.log with -state-dir; requires the seal secret)")
		drainTimeout   = fs.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests before force-closing connections")

		insecure        = fs.Bool("insecure", false, "speak explicit plaintext on the wire channel instead of the attested (RA-TLS) default; both daemons must agree")
		ratlsSecret     = fs.String("ratls-secret", "", "shared provisioning secret for the attested channel (both daemons must use the same secret)")
		ratlsSecretFile = fs.String("ratls-secret-file", "", "read the channel provisioning secret from this file instead of the command line")
		ticketRotate    = fs.Duration("ratls-ticket-rotate", 0, "rotate the session-ticket secret at this interval, forcing resumed clients back through a full quote-verified handshake; 0 never rotates")
	)
	fs.Var(&licenses, "license", licenseFlagHelp)
	fs.Var(&peers, "peer", "shard leader address, repeated once per shard in shard order; required when -shards > 1")
	if err := fs.Parse(args); err != nil {
		return err
	}

	specs, err := parseLicenses(licenses)
	if err != nil {
		return err
	}
	if *follow != "" && *stateDir == "" {
		return errors.New("-follow requires -state-dir: the promoted leader's durable state lives there")
	}
	mode, err := store.ParseSyncMode(*fsync)
	if err != nil {
		return err
	}

	// Sharded deployments build a static routing directory from the -peer
	// list; the node's shard gate consults it on every license-scoped
	// request.
	var clusterDir *cluster.Directory
	if *shards > 1 || len(peers) > 0 || *follow != "" {
		if *shardIndex < 0 || *shardIndex >= *shards {
			return fmt.Errorf("-shard-index %d out of range [0, %d)", *shardIndex, *shards)
		}
		if len(peers) == 0 && *follow != "" {
			// A lone leader/standby pair: the leader is the whole peer list.
			peers = stringFlags{*follow}
		}
		if len(peers) != *shards {
			return fmt.Errorf("-shards %d needs exactly %d -peer flags (leader addresses in shard order), got %d", *shards, *shards, len(peers))
		}
		ring, err := cluster.NewRing(*shards, 0)
		if err != nil {
			return err
		}
		clusterDir = cluster.NewDirectory(ring)
		for i, p := range peers {
			clusterDir.SetLeader(i, p)
		}
	}

	var service *attest.Service
	if !*open {
		service = attest.NewService()
		log.Printf("attestation service enabled: enroll platforms before clients can init")
	}

	// Instrumentation is always on, and it follows the process, not the
	// role: one bundle feeds the HTTP endpoint when -metrics-addr is set
	// and the wire obs_pull RPC regardless, before and after a standby
	// promotes. The flight recorder is the always-on black box: SIGQUIT
	// dumps it to stderr, and every exit persists it next to the WAL.
	nodeObs := cluster.NewNodeObs("sl-remote", *traceBuffer)
	defer nodeObs.Close()
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			nodeObs.Flight.DumpText(os.Stderr)
		}
	}()
	defer func() {
		signal.Stop(quit)
		close(quit)
	}()

	// The seal key protects both the durable state and the audit log.
	var sealKey seccrypto.Key
	if *stateDir != "" || *auditFile != "" {
		sealKey, err = loadSealKey(*sealSecret, *sealSecretFile)
		if err != nil {
			return err
		}
	}

	// The shard's audit chain outlives any one leader: a promoted standby
	// appends to the same directory the dead leader used, keeping one
	// verifiable chain across incarnations when both ran on this host.
	auditPath := *auditFile
	if auditPath == "" && *stateDir != "" {
		auditPath = filepath.Join(*stateDir, "audit.log")
	}
	var auditLog *audit.Log
	if auditPath != "" {
		auditLog, err = audit.Open(auditPath, sealKey)
		if err != nil {
			return err
		}
		defer auditLog.Close()
		log.Printf("audit log at %s (%d records on chain)", auditPath, auditLog.Len())
	}

	// The observability endpoint comes up before recovery so /healthz
	// answers as soon as the process lives while /readyz stays 503 until
	// this process serves the shard itself: after the WAL/snapshot replay
	// for a leader, after promotion for a standby.
	var ready atomic.Bool
	if *metricsAddr != "" {
		opts := obs.HandlerOptions{Ready: ready.Load, PProf: *pprofOn}
		if auditLog != nil {
			opts.Audit = auditLog.HTTPHandler()
		}
		if err := nodeObs.Serve(*metricsAddr, opts); err != nil {
			return err
		}
		log.Printf("observability endpoint on %s/metrics", nodeObs.URL())
	}

	// Sharded servers additionally trust the SL-Remote code identity
	// itself, since peer shards and followers connect over the same channel.
	trusted := [][]byte{sllocal.EnclaveCodeIdentity}
	if clusterDir != nil {
		trusted = append(trusted, slremote.EnclaveCodeIdentity)
	}
	rc, err := channelConfig("sl-remote", *insecure, *ratlsSecret, *ratlsSecretFile, trusted...)
	if err != nil {
		return err
	}
	if rc.IsInsecure() {
		log.Printf("wire channel: explicit plaintext (-insecure)")
	} else {
		log.Printf("wire channel: attested (RA-TLS), presenting %s", slremote.EnclaveCodeIdentity)
	}

	// Stand the node up: a leader serves at once (recovered from
	// -state-dir when given, purely in-memory otherwise); a standby tails
	// its leader and serves once it has promoted.
	opts := cluster.NodeOptions{
		Shard:         *shardIndex,
		Dir:           *stateDir,
		SealKey:       sealKey,
		Config:        slremote.Config{D: *d, HealthThreshold: *th, Beta: *beta, TauFraction: *tau},
		Service:       service,
		Channel:       rc,
		Directory:     clusterDir,
		Audit:         auditLog,
		SyncMode:      mode,
		SnapshotEvery: *snapshotEvery,
		Obs:           nodeObs,
		ListenAddr:    *addr,
		Logf:          log.Printf,
	}
	if *stateDir != "" {
		// The black box lands next to the WAL on every exit from here on,
		// a standby stopped before promoting included: a post-mortem can
		// replay the process's last DefaultCapacity events with
		// flight.ReadDump.
		defer func() {
			if err := nodeObs.Flight.Persist(filepath.Join(*stateDir, "flight.log")); err != nil {
				log.Printf("sl-remote: persisting flight recorder: %v", err)
			}
		}()
	}
	var node *cluster.Node
	if *follow != "" {
		// The follower presents the SL-Remote code identity (it is one)
		// and pins the leader's.
		replRC, err := channelConfig("sl-remote-follower", *insecure, *ratlsSecret, *ratlsSecretFile, slremote.EnclaveCodeIdentity)
		if err != nil {
			return err
		}
		opts.AdvertiseAddr = *addr
		node, err = standBy(*follow, *promoteAfter, replRC, opts, stop)
		if err != nil || node == nil { // nil: told to stop before it promoted
			return err
		}
	} else {
		if clusterDir != nil {
			// Known to the gate by the address the -peer list uses, which a
			// wildcard -addr is not.
			opts.AdvertiseAddr = peers[*shardIndex]
			log.Printf("shard %d of %d (as %s): requests for other shards' licenses get not_leader redirects", *shardIndex, *shards, opts.AdvertiseAddr)
		}
		node, err = cluster.StartNode(opts)
		if err != nil {
			return err
		}
	}

	// From here on every node is the same, however it got the role.
	defer node.Kill() // an error return must not leave it serving; a no-op after Shutdown

	// Pre-register the -license flags, skipping IDs already present in
	// recovered or replicated state (re-running the same command line
	// after a restart is the normal deployment pattern). The node attached
	// the audit chain before it started serving, so every registration
	// lands on it as an issue record.
	for _, spec := range specs {
		if _, err := node.Remote().License(spec.id); err == nil {
			log.Printf("license %q already in recovered state; flag ignored", spec.id)
			continue
		}
		if err := node.Remote().RegisterLicense(spec.id, spec.kind, spec.total); err != nil {
			return err
		}
		log.Printf("registered license %q (%s, %d GCL units)", spec.id, spec.kind, spec.total)
	}
	ready.Store(true)
	log.Printf("sl-remote: listening on %s", node.Addr())
	if serving != nil {
		serving(node)
	}

	if *ticketRotate > 0 && !rc.IsInsecure() {
		rotateDone := make(chan struct{})
		defer close(rotateDone)
		go func() {
			tick := time.NewTicker(*ticketRotate)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := rc.RotateTicketSecret(); err != nil {
						log.Printf("ticket rotation: %v", err)
					}
				case <-rotateDone:
					return
				}
			}
		}()
		log.Printf("rotating session-ticket secret every %v", *ticketRotate)
	}

	var serveErr error
	select {
	case <-node.Done():
		// The listener died under us: still drain and snapshot, but exit
		// non-zero.
		serveErr = node.Err()
	case sig := <-stop:
		log.Printf("sl-remote: %v: draining (timeout %v)", sig, *drainTimeout)
		nodeObs.Flight.Emit("slremote.shutdown", flight.KV{K: "signal", V: sig.String()})
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := node.Shutdown(ctx); err != nil {
		return err
	}
	if *stateDir != "" {
		log.Printf("sl-remote: state snapshotted to %s", *stateDir)
	}
	log.Printf("sl-remote: shutdown complete")
	return serveErr
}

// channelConfig builds one wire-channel config: RA-TLS by default — a
// dedicated channel machine called name presenting the SL-Remote code
// identity and pinning the trusted ones — plaintext only behind -insecure.
func channelConfig(name string, insecure bool, secret, secretFile string, trusted ...[]byte) (*ratls.Config, error) {
	if insecure {
		return ratls.Insecure(), nil
	}
	raw, err := loadChannelSecret(secret, secretFile)
	if err != nil {
		return nil, err
	}
	m, err := sgx.NewMachine(sgx.MachineConfig{Name: name})
	if err != nil {
		return nil, err
	}
	return ratls.NewProvisioned(name, m, raw, slremote.EnclaveCodeIdentity, trusted...)
}

// loadChannelSecret resolves the -ratls-secret[-file] flags; the attested
// default refuses to start without one.
func loadChannelSecret(secret, file string) ([]byte, error) {
	if file != "" {
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("reading -ratls-secret-file: %w", err)
		}
		secret = strings.TrimSpace(string(raw))
	}
	if secret == "" {
		return nil, errors.New("the wire channel is attested by default: provide -ratls-secret or -ratls-secret-file (shared with every sl-local), or opt out explicitly with -insecure")
	}
	return []byte(secret), nil
}

// loadSealKey derives the 128-bit seal key from the operator's secret (a
// stand-in for the SGX sealing key, which would be MRSIGNER-derived inside
// a real enclave).
func loadSealKey(secret, file string) (seccrypto.Key, error) {
	if file != "" {
		raw, err := os.ReadFile(file)
		if err != nil {
			return seccrypto.Key{}, fmt.Errorf("reading -seal-secret-file: %w", err)
		}
		secret = strings.TrimSpace(string(raw))
	}
	if secret == "" {
		return seccrypto.Key{}, errors.New("-state-dir and -audit-file require -seal-secret or -seal-secret-file (escrowed keys, snapshots, and the audit chain are sealed on disk)")
	}
	sum := sha256.Sum256([]byte(secret))
	return seccrypto.KeyFromBytes(sum[:seccrypto.KeySize])
}

const licenseFlagHelp = `pre-register a license; repeatable. Grammar: id:kind:totalGCL where
id is a unique name (no colons), kind is one of count, time, exec-time,
perpetual, and totalGCL is a positive integer budget (for perpetual
licenses: the number of seats). Duplicate ids are rejected.`

type licenseSpec struct {
	id    string
	kind  lease.Kind
	total int64
}

// parseLicenses parses all -license flags and rejects duplicate IDs early,
// before any server state exists.
func parseLicenses(specs []string) ([]licenseSpec, error) {
	out := make([]licenseSpec, 0, len(specs))
	seen := make(map[string]string, len(specs))
	for _, spec := range specs {
		id, kind, total, err := parseLicense(spec)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[id]; dup {
			return nil, fmt.Errorf("license %q: duplicate id %q (already defined by -license %s)", spec, id, prev)
		}
		seen[id] = spec
		out = append(out, licenseSpec{id: id, kind: kind, total: total})
	}
	return out, nil
}

func parseLicense(spec string) (string, lease.Kind, int64, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return "", 0, 0, fmt.Errorf("license %q: want id:kind:totalGCL", spec)
	}
	if parts[0] == "" {
		return "", 0, 0, fmt.Errorf("license %q: empty id", spec)
	}
	var kind lease.Kind
	switch parts[1] {
	case "count":
		kind = lease.CountBased
	case "time":
		kind = lease.TimeBased
	case "exec-time":
		kind = lease.ExecTimeBased
	case "perpetual":
		kind = lease.Perpetual
	default:
		return "", 0, 0, fmt.Errorf("license %q: unknown kind %q (want count, time, exec-time, or perpetual)", spec, parts[1])
	}
	total, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil || total <= 0 {
		return "", 0, 0, fmt.Errorf("license %q: bad total %q", spec, parts[2])
	}
	return parts[0], kind, total, nil
}
