package cluster

import (
	"context"
	"fmt"
	"net"
	"strings"

	"repro/internal/attest"
	"repro/internal/audit"
	"repro/internal/obs/fleet"
	"repro/internal/ratls"
	"repro/internal/seccrypto"
	"repro/internal/slremote"
	"repro/internal/store"
	"repro/internal/wire"
)

// NodeOptions configures one shard server.
type NodeOptions struct {
	// Shard is the hash range this node serves.
	Shard int
	// Dir is the node's own state directory (WAL + snapshots). Every
	// incarnation of a shard gets a fresh directory: a promoted follower
	// never writes into its dead leader's files. Empty runs the server in
	// memory: no store, no replication source, no final snapshot.
	Dir string
	// SealKey seals snapshots, escrow records, and the audit chain. One
	// key per cluster — shipped snapshots must unseal on the follower.
	SealKey seccrypto.Key
	// Config is the Algorithm 1 parameter set, shared by every shard.
	Config slremote.Config
	// Service gates InitClient attestation (nil: open attestation).
	Service *attest.Service
	// Channel is the wire channel config (attested or explicitly
	// insecure). Each node needs its own config instance.
	Channel *ratls.Config
	// Directory resolves shard ownership; the node's gate consults it on
	// every license-scoped request. Nil serves ungated: an unsharded
	// server owns every license.
	Directory *Directory
	// Audit is the shard's tamper-evident lease audit chain (nil: none).
	// It outlives any one leader: a promoted follower appends to the same
	// chain, which is how the chain stays verifiable across failovers.
	Audit *audit.Log
	// SyncMode is the WAL durability mode (default SyncBatched).
	SyncMode store.SyncMode
	// SnapshotEvery compacts the WAL after this many records (0: only on
	// demand).
	SnapshotEvery int
	// Obs is the node's observability bundle (nil: unobserved). When set,
	// every subsystem the node touches — server, wire, channel, store,
	// audit — registers its metrics with the bundle's registry, traces
	// into its tracer, and marks events into its event ring, and the
	// wire server answers obs_pull scrapes from it.
	Obs *fleet.NodeObs
	// ListenAddr is the node's wire listen address (default 127.0.0.1:0,
	// an ephemeral loopback port — right for in-process clusters; the
	// sl-remote daemon passes its -addr).
	ListenAddr string
	// AdvertiseAddr is the address the node is known by in the directory
	// (default: the bound listener address). Daemons listening on a
	// wildcard address must advertise the address their -peer list uses,
	// or the gate would judge the node a stranger to its own shard.
	AdvertiseAddr string
	// Logf receives server logs (nil: silent).
	Logf func(string, ...any)
}

// Node is one running shard server: an slremote.Server behind a wire
// listener, gated by the cluster directory and exposing its WAL as a
// replication source. It is the only composition of those layers: the
// cluster, the benchmark, and the sl-remote daemon all serve through it.
type Node struct {
	shard    int
	addr     string
	store    *store.Store // nil: in-memory
	remote   *slremote.Server
	wsrv     *wire.Server
	obs      *fleet.NodeObs
	done     chan struct{}
	serveErr error // why the accept loop ended; read after done
	killed   bool
}

// StartNode opens (or recovers) the node's store and starts serving on
// opts.ListenAddr. The caller registers the node in the directory.
func StartNode(opts NodeOptions) (*Node, error) {
	if opts.Dir == "" {
		remote, err := slremote.NewServer(opts.Config, opts.Service)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d server: %w", opts.Shard, err)
		}
		return serveNode(opts, nil, remote)
	}
	return bootNode(opts, func(st *store.Store, rec *store.Recovered) (*slremote.Server, error) {
		remote, err := slremote.RecoverServer(opts.Config, opts.Service, rec, opts.persistence(st))
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d server: %w", opts.Shard, err)
		}
		if opts.Logf != nil && !rec.Empty() {
			opts.Logf("recovered state from %s (generation %d, %d WAL records replayed, licenses: %s)",
				opts.Dir, rec.Generation, len(rec.Records), strings.Join(remote.LicenseIDs(), ", "))
		}
		return remote, nil
	})
}

// bootNode is the one durable boot path — open the store in opts.Dir,
// attach a server to it, serve — shared by StartNode (attach recovers
// whatever the directory holds) and Follower.Promote (attach promotes the
// replica onto the fresh directory). The store closes on any failure.
func bootNode(opts NodeOptions, attach func(*store.Store, *store.Recovered) (*slremote.Server, error)) (*Node, error) {
	st, rec, err := store.Open(store.Options{
		Dir: opts.Dir, Mode: opts.SyncMode, Metrics: storeMetrics(opts.Obs),
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d store: %w", opts.Shard, err)
	}
	remote, err := attach(st, rec)
	if err == nil {
		var n *Node
		if n, err = serveNode(opts, st, remote); err == nil {
			return n, nil
		}
	}
	st.Close()
	return nil, err
}

// persistence is the node's durability wiring: st is both its WAL and its
// snapshot sink.
func (opts NodeOptions) persistence(st *store.Store) slremote.PersistConfig {
	return slremote.PersistConfig{Log: st, Snap: st, SealKey: opts.SealKey, SnapshotEvery: opts.SnapshotEvery}
}

// serveNode wraps an already-built server in the wire layer and starts
// serving; every node start ends here, so a promoted follower is
// indistinguishable from a freshly started leader. The audit chain is
// attached before anything can mutate the server, so it covers every
// decision of the node's lifetime.
func serveNode(opts NodeOptions, st *store.Store, remote *slremote.Server) (*Node, error) {
	remote.AttachAudit(opts.Audit)
	listenAddr := opts.ListenAddr
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d listen: %w", opts.Shard, err)
	}
	addr := opts.AdvertiseAddr
	if addr == "" {
		addr = ln.Addr().String()
	}
	// The wire server is configured once: its gate judges ownership by the
	// address the node is known by, so it is built after the listener.
	var gate wire.ShardGate
	if opts.Directory != nil {
		gate = opts.Directory.Gate(opts.Shard, addr)
	}
	var repl wire.ReplSource
	if st != nil {
		repl = st
	}
	var pull wire.ObsSource
	if opts.Obs != nil {
		pull = opts.Obs.PullSource()
	}
	wsrv, err := wire.NewServer(remote, opts.Logf, opts.Channel, gate, repl, pull)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("cluster: shard %d wire server: %w", opts.Shard, err)
	}
	if o := opts.Obs; o != nil {
		remote.ExposeMetrics(o.Registry)
		remote.SetFlightRecorder(o.Flight)
		wsrv.ExposeMetrics(o.Registry, o.Tracer)
		wsrv.SetFlightRecorder(o.Flight)
		if opts.Channel != nil {
			opts.Channel.ExposeMetrics(o.Registry, o.Tracer)
			opts.Channel.SetFlightRecorder(o.Flight)
		}
		if opts.Audit != nil {
			opts.Audit.ExposeMetrics(o.Registry)
		}
	}
	n := &Node{
		shard:  opts.Shard,
		addr:   addr,
		store:  st,
		remote: remote,
		wsrv:   wsrv,
		obs:    opts.Obs,
		done:   make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		n.serveErr = wsrv.Serve(ln)
	}()
	return n, nil
}

// Addr is the address the node is known by: AdvertiseAddr when set, the
// bound listener address otherwise.
func (n *Node) Addr() string { return n.addr }

// Remote is the node's SL-Remote instance; harnesses drive it directly to
// skip the wire layer, and the daemon pre-registers licenses through it.
func (n *Node) Remote() *slremote.Server { return n.remote }

// Done is closed once the node has stopped serving — after Kill or
// Shutdown, or because the listener died under it. Err tells which.
func (n *Node) Done() <-chan struct{} { return n.done }

// Err is why the accept loop ended: nil after Kill or Shutdown, the
// listener's error otherwise. Valid once Done is closed.
func (n *Node) Err() error { return n.serveErr }

// Obs is the node's observability bundle (nil when unobserved).
func (n *Node) Obs() *fleet.NodeObs { return n.obs }

// Kill simulates the leader dying: the listener and every connection drop
// and the store is abandoned without a snapshot or a clean close. The
// state directory survives (a real crash leaves the files), but the
// failover path never reads it — the follower's shipped state takes over.
func (n *Node) Kill() {
	if n.killed {
		return
	}
	n.killed = true
	n.wsrv.Close()
	<-n.done
	// A SIGKILLed process takes its exposition endpoint with it; the
	// fleet aggregator sees scrape errors and rising staleness.
	n.obs.Close()
}

// Shutdown drains in-flight requests (force-closing the stragglers when
// ctx expires first), snapshots, and closes the store — the graceful exit.
func (n *Node) Shutdown(ctx context.Context) error {
	if n.killed {
		return nil
	}
	n.killed = true
	if err := n.wsrv.Shutdown(ctx); err != nil {
		n.wsrv.Close()
	}
	<-n.done
	n.obs.Close()
	if n.store == nil {
		return nil
	}
	if err := n.remote.SnapshotNow(); err != nil {
		return fmt.Errorf("cluster: shard %d final snapshot: %w", n.shard, err)
	}
	if err := n.store.Close(); err != nil {
		return fmt.Errorf("cluster: shard %d closing store: %w", n.shard, err)
	}
	return nil
}
