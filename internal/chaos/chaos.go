// Package chaos is the repository's deterministic fault-injection
// toolkit. The paper's execution-control guarantees are claims about what
// survives failure — a crash forfeits every outstanding lease (§5.7), a
// graceful shutdown escrows the root key exactly once (§5.6), the WAL
// replays to the same server — and those claims are only testable under
// faults that arrive at inconvenient moments. This package makes the
// inconvenient moments reproducible:
//
//   - FS implements store.FS and can tear a write in half, short-write,
//     fail an fsync, or crash-stop the "process" at the Nth filesystem
//     operation;
//   - Conn/Listener wrap net.Conn so the wire protocol sees dropped,
//     delayed, duplicated, truncated-mid-envelope, or reset traffic;
//   - Link is the seeded stochastic network model (delivery probability
//     n, partitions), and Link.Wrap puts it in front of an in-process
//     SL-Remote so SL-Local's requests are lost where they would be lost;
//   - Schedule turns one PRNG seed into a full operation/fault
//     interleaving for a swarm of SL-Local clients against one SL-Remote;
//   - CheckConservation asserts the global license-unit conservation law
//     after any quiesce point.
//
// Everything is keyed to operation counters, never wall-clock time, so a
// failing swarm run's seed replays the exact same fault trace.
package chaos

import "fmt"

// Event is one injected fault, recorded at fire time. Traces from two runs
// of the same seed must be identical — the swarm test asserts exactly
// that with reflect.DeepEqual.
type Event struct {
	// Domain is "fs" or "net".
	Domain string
	// Op is the injector's operation counter when the fault fired (the
	// Nth filesystem op or the Nth connection write).
	Op int64
	// Kind names the fault ("torn-write", "reset", ...).
	Kind string
	// Detail locates it: a file path or a connection's remote address.
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%s[%d] %s %s", e.Domain, e.Op, e.Kind, e.Detail)
}
