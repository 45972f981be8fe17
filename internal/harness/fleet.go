package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/attest"
	"repro/internal/chaos"
	"repro/internal/lease"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
)

// FleetClient is the simulated profile of one client machine in the fleet
// experiment.
type FleetClient struct {
	Name        string
	Health      float64 // crash probability is 1 − Health per epoch
	Reliability float64 // network delivery probability
	Weight      float64 // demand share α
}

// FleetResult summarizes a multi-client lease-distribution run — the
// scenario Algorithm 1 is designed for (Section 5.3): a multi-party group
// sharing one license pool, with flaky networks and crashing nodes.
type FleetResult struct {
	Clients      int
	Epochs       int
	TotalGCL     int64
	Tau          float64
	ChecksServed int64
	Crashes      int64
	UnitsLost    int64
	UnitsGranted int64
	Denials      int64
}

// Fleet runs `epochs` rounds over the given clients sharing one license.
// Each epoch every live client serves a burst of license checks; clients
// crash with probability (1 − health) per epoch and restart the next one
// (forfeiting outstanding units, per the pessimistic policy). The result
// witnesses the invariants Algorithm 1 promises: grants never exceed the
// pool, and realized losses stay in the neighbourhood of τ per epoch.
func Fleet(clients []FleetClient, epochs int, totalGCL int64, seed int64) (*FleetResult, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("harness: empty fleet")
	}
	if epochs <= 0 {
		epochs = 5
	}
	rng := rand.New(rand.NewSource(seed))

	remote, err := slremote.NewServer(slremote.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	const license = "lic-fleet"
	if err := remote.RegisterLicense(license, lease.CountBased, totalGCL); err != nil {
		return nil, err
	}

	type node struct {
		profile FleetClient
		svc     *sllocal.Service
		app     *sgx.Enclave
		down    bool
	}
	nodes := make([]*node, len(clients))
	startNode := func(n *node) error {
		if err := n.svc.Init(); err != nil {
			return err
		}
		n.down = false
		return remote.SetClientProfile(n.svc.SLID(), n.profile.Health, n.profile.Reliability, n.profile.Weight)
	}
	for i, c := range clients {
		m, err := sgx.NewMachine(sgx.MachineConfig{Name: c.Name, EPCBytes: 8 << 20})
		if err != nil {
			return nil, err
		}
		plat, err := attest.NewPlatform(c.Name, m)
		if err != nil {
			return nil, err
		}
		svc, err := sllocal.New(sllocal.Config{TokenBatch: 10}, sllocal.Deps{
			Machine: m, Platform: plat, Remote: chaos.NewLink(c.Reliability, seed+int64(i)).Wrap(remote, m),
		})
		if err != nil {
			return nil, err
		}
		n := &node{profile: c, svc: svc}
		if err := startNode(n); err != nil {
			return nil, fmt.Errorf("harness: starting %s: %w", c.Name, err)
		}
		n.app, err = m.CreateEnclave("fleet-app", []byte("fleet-app"), 0)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}

	res := &FleetResult{
		Clients:  len(clients),
		Epochs:   epochs,
		TotalGCL: totalGCL,
	}
	lic, err := remote.License(license)
	if err != nil {
		return nil, err
	}
	res.Tau = lic.Tau

	burst := int(totalGCL) / (len(clients) * epochs * 4)
	if burst < 10 {
		burst = 10
	}
	for epoch := 0; epoch < epochs; epoch++ {
		for _, n := range nodes {
			if n.down {
				// Restart: SL-Remote infers the crash at init and
				// forfeits whatever the node held.
				if err := startNode(n); err != nil {
					return nil, fmt.Errorf("harness: restarting %s: %w", n.profile.Name, err)
				}
			}
			served := 0
			for served < burst {
				tok, err := n.svc.RequestToken(n.app, license)
				if err != nil {
					res.Denials++
					break
				}
				for tok.Use() && served < burst {
					served++
					res.ChecksServed++
				}
			}
			// Crash roll for this epoch.
			if rng.Float64() > n.profile.Health {
				n.svc.Crash()
				n.down = true
				res.Crashes++
			}
		}
	}

	lic, err = remote.License(license)
	if err != nil {
		return nil, err
	}
	res.UnitsLost = lic.Lost
	res.UnitsGranted = totalGCL - lic.Remaining
	return res, nil
}

// Render prints the fleet summary.
func (r *FleetResult) Render() string {
	header := []string{"Clients", "Epochs", "Pool", "Granted", "Served", "Crashes", "Lost", "τ", "Denials"}
	rows := [][]string{{
		fmt.Sprintf("%d", r.Clients),
		fmt.Sprintf("%d", r.Epochs),
		fmtCount(r.TotalGCL),
		fmtCount(r.UnitsGranted),
		fmtCount(r.ChecksServed),
		fmt.Sprintf("%d", r.Crashes),
		fmtCount(r.UnitsLost),
		fmtCount(int64(r.Tau)),
		fmt.Sprintf("%d", r.Denials),
	}}
	out := renderTable("Fleet: shared-license distribution under crashes (Section 5.3)", header, rows)
	out += "\nInvariants: granted ≤ pool; served + lost ≤ granted; losses bounded by\nthe τ-scaled sub-leases Algorithm 1 hands out.\n"
	return out
}
