package main

import (
	"fmt"
	"reflect"
	"time"
)

// gateReport carries what the correctness gate measured on its way
// (the trace pass reports these as per-layer metrics).
type gateReport struct {
	auditVerify     time.Duration
	followerApplied int64 // records folded by the followers, after drain
}

// gate is the correctness check every window must pass before a single
// number is printed. It runs after the window, so it may stop the
// followers' pull loops (Drain) and re-read the audit chain from disk.
//
//   - no op failed and SL-Remote denied nothing (a denial is cheap: it
//     skips the WAL, so one slipping through would inflate ops_per_s);
//   - lease conservation per shard and cluster-wide;
//   - the audit chain verifies, when there is one;
//   - each drained follower's replica equals its leader's state;
//   - the client ledger matches the server's Outstanding: every unit a
//     client was granted is a unit the server believes it holds;
//   - real SL-Locals issued no more than they were granted, denied
//     nothing, and their SL-Managers authorized exactly the ops run;
//   - an evicting workload did evict (footprint held under a budget
//     smaller than the unevicted tree).
func (st *stack) gate(failed int64) (gateReport, error) {
	var rep gateReport
	if failed != 0 {
		return rep, fmt.Errorf("%d ops failed", failed)
	}
	c := st.cluster
	for s := 0; s < shards; s++ {
		if d := c.Leader(s).Remote().Stats().RenewalsDenied; d != 0 {
			return rep, fmt.Errorf("shard %d denied %d renewals", s, d)
		}
	}
	if err := c.CheckConservation(); err != nil {
		return rep, err
	}
	if st.opts.cfg.audit {
		var err error
		rep.auditVerify, err = timed(c.VerifyAudit)
		if err != nil {
			return rep, err
		}
	}
	states := c.States()
	for s := 0; s < shards; s++ {
		f := c.Follower(s)
		if err := f.Drain(); err != nil {
			return rep, fmt.Errorf("shard %d follower drain: %w", s, err)
		}
		if got := f.State(); !reflect.DeepEqual(got, states[s]) {
			return rep, fmt.Errorf("shard %d: drained follower's replica differs from its leader's state", s)
		}
		rep.followerApplied += f.Applied()
	}
	for s := 0; s < shards; s++ {
		for i, slid := range st.pops[s].slids {
			var held int64
			for _, units := range states[s].Clients[slid].Outstanding {
				held += units
			}
			if want := st.granted[s][i].Load(); held != want {
				return rep, fmt.Errorf("shard %d %s: server holds %d units outstanding, client ledger says %d", s, slid, held, want)
			}
		}
	}
	var authorized int64
	for i, inst := range st.instances {
		ls := inst.svc.Stats()
		if ls.Denials != 0 || ls.RenewalFailures != 0 {
			return rep, fmt.Errorf("instance %d: %d denials, %d failed renewals", i, ls.Denials, ls.RenewalFailures)
		}
		var held int64
		for _, units := range states[inst.shard].Clients[inst.svc.SLID()].Outstanding {
			held += units
		}
		if ls.TokensIssued > held {
			return rep, fmt.Errorf("instance %d issued %d grants but was granted only %d units", i, ls.TokensIssued, held)
		}
		if tr, ok := st.remotes[inst.shard].(*tracedRemote); ok && tr.grantedTo(inst.svc.SLID()) != held {
			return rep, fmt.Errorf("instance %d: server holds %d units outstanding, client ledger says %d", i, held, tr.grantedTo(inst.svc.SLID()))
		}
		for _, m := range inst.mgrs {
			ms := m.Stats()
			if ms.Denials != 0 {
				return rep, fmt.Errorf("instance %d: SL-Manager denied %d executions", i, ms.Denials)
			}
			authorized += ms.Authorizations
		}
		if fp := inst.svc.TreeFootprint(); fp > st.treeBudget {
			return rep, fmt.Errorf("instance %d: lease tree footprint %d exceeds its budget %d", i, fp, st.treeBudget)
		}
	}
	if len(st.instances) > 0 && authorized != st.executed {
		return rep, fmt.Errorf("SL-Managers authorized %d executions, %d were run", authorized, st.executed)
	}
	if st.opts.cfg.budgetFraction > 0 && st.treeBudget >= st.treeFull {
		return rep, fmt.Errorf("tree budget %d does not force eviction of a %d-byte tree", st.treeBudget, st.treeFull)
	}
	return rep, nil
}
