package chaos

import "math/rand"

// Swarm operation kinds, interpreted by the swarm runner (the
// TestChaosSwarm harness in internal/integration).
const (
	// OpToken has a client request an execution token, renewing its
	// sub-GCL over the wire when the local lease tree runs dry. A client
	// that previously crashed re-initializes first — exercising the
	// pessimistic forfeit of Section 5.7.
	OpToken = "token"
	// OpConsume reports spent units straight to the server, in process
	// (the conservation ledger's consumed column). It always appends to
	// the server's WAL, so the torn-write fault rides on it.
	OpConsume = "consume"
	// OpProfile nudges a client's Algorithm 1 inputs (h_i, n_i, α_i) on
	// the server, in process.
	OpProfile = "profile"
	// OpClientRestart shuts a client down gracefully (escrowing its root
	// key) and re-initializes it, which must release the escrow exactly
	// once. Both calls cross the wire, so the connection-cut fault rides
	// on it.
	OpClientRestart = "client-restart"
	// OpClientCrash destroys a client's enclave with nothing escrowed.
	// Nothing reports it: the client's next init finds no escrowed key,
	// and every unit it held moves to the license's Lost column there.
	OpClientCrash = "client-crash"
	// OpServerRestart kills the SL-Remote (no final snapshot) and
	// recovers it from the state directory — through the same chaos.FS
	// that may have just torn its WAL.
	OpServerRestart = "server-restart"
	// OpQuiesce runs the invariant checker: conservation, audit-chain
	// verification, and (when the incarnation is clean) recovery
	// round-trip equality.
	OpQuiesce = "quiesce"
)

// Step is one scheduled swarm action. Faults listed on a step are armed
// immediately before the action runs; they fire on whatever matching
// filesystem op or connection write comes next, which the fixed operation
// sequence makes deterministic.
type Step struct {
	Op     string
	Client int // target client index; -1 for server-wide steps

	Units                       int64   // OpConsume: units to report
	Health, Reliability, Weight float64 // OpProfile: Algorithm 1 inputs

	FSFaults  []FSFault   // armed on the server's store filesystem
	NetFaults []ConnFault // armed on the server's listener director
}

// Schedule is a fully pre-generated operation/fault interleaving: one seed
// maps to one schedule, and one schedule (run sequentially) maps to one
// fault trace. Regenerating with the seed a failing run printed replays
// the exact same chaos.
type Schedule struct {
	Seed    int64
	Clients int
	Steps   []Step
}

// Schedule shape parameters. quiesceEvery spaces invariant checks;
// the minimums keep the structural fault placements distinct.
const (
	quiesceEvery = 20
	minClients   = 2
	minSteps     = 40
)

// NewSchedule derives a schedule from the seed: steps operations across
// the given number of clients, an invariant check every quiesceEvery
// steps, a randomized mix of renewals, consume reports, profile changes,
// client crashes/restarts and server restarts, plus three structurally
// placed faults every seed is guaranteed to include — a torn WAL write
// (with the server restart that must recover from it), a mid-envelope
// connection cut on a client restart, and a client crash. Inputs below
// the minimums are raised to them.
func NewSchedule(seed int64, clients, steps int) *Schedule {
	if clients < minClients {
		clients = minClients
	}
	if steps < minSteps {
		steps = minSteps
	}
	rng := rand.New(rand.NewSource(seed))
	sc := &Schedule{Seed: seed, Clients: clients}

	// Client 0 is the anchor: it is never crashed or restarted, so a
	// consume report on it always reaches the WAL — the guaranteed append
	// the torn-write fault needs in order to fire. Client 1's restart
	// always writes on the wire (escrow, then init, or init alone when it
	// is down) — the guaranteed frame the cut needs.
	tornAt := steps / 4
	cutAt := steps / 2
	crashAt := 3 * steps / 4

	for i := 0; i < steps; i++ {
		var st Step
		// Structural placements outrank the periodic quiesce so a
		// required fault can never be shadowed by a check landing on the
		// same index.
		switch {
		case i == tornAt:
			st = Step{Op: OpConsume, Client: 0, Units: 1 + rng.Int63n(3),
				FSFaults: []FSFault{{Kind: TornWrite}}}
		case i == tornAt+1:
			st = Step{Op: OpServerRestart, Client: -1}
		case i == cutAt:
			st = Step{Op: OpClientRestart, Client: 1, NetFaults: []ConnFault{{Kind: Cut}}}
		case i == crashAt:
			st = Step{Op: OpClientCrash, Client: 1}
		case i > 0 && i%quiesceEvery == 0:
			st = Step{Op: OpQuiesce, Client: -1}
		default:
			st = sc.randomStep(rng)
		}
		sc.Steps = append(sc.Steps, st)
	}
	sc.Steps = append(sc.Steps, Step{Op: OpQuiesce, Client: -1})
	return sc
}

// randomStep draws one operation, occasionally decorated with a fault.
func (sc *Schedule) randomStep(rng *rand.Rand) Step {
	var st Step
	switch p := rng.Float64(); {
	case p < 0.55:
		st = Step{Op: OpToken, Client: rng.Intn(sc.Clients)}
	case p < 0.75:
		st = Step{Op: OpConsume, Client: rng.Intn(sc.Clients), Units: 1 + rng.Int63n(5)}
	case p < 0.85:
		st = Step{Op: OpProfile, Client: rng.Intn(sc.Clients),
			Health:      0.5 + rng.Float64()/2,
			Reliability: 0.7 + 0.3*rng.Float64(),
			Weight:      0.5 + 1.5*rng.Float64(),
		}
	case p < 0.92:
		// Crash/restart ops spare the anchor client 0.
		st = Step{Op: OpClientRestart, Client: 1 + rng.Intn(sc.Clients-1)}
	case p < 0.96:
		st = Step{Op: OpClientCrash, Client: 1 + rng.Intn(sc.Clients-1)}
	default:
		st = Step{Op: OpServerRestart, Client: -1}
	}
	if rng.Float64() < 0.08 {
		st.FSFaults = append(st.FSFaults, FSFault{
			Kind:  []string{ShortWrite, SyncFail}[rng.Intn(2)],
			After: rng.Intn(3),
		})
	}
	if rng.Float64() < 0.10 {
		st.NetFaults = append(st.NetFaults, ConnFault{
			Kind:  []string{Drop, Delay, Dup, Reset}[rng.Intn(4)],
			After: rng.Intn(4),
		})
	}
	return st
}
