package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/partition"
	"repro/internal/sgx"
	"repro/internal/workloads"
)

// Figure9Row is one workload's end-to-end overheads over vanilla for the
// three systems the paper compares (Figure 9): F-LaaS, Glamdring (with
// the same lease mechanism as SecureLease), and SecureLease. Overheads
// are slowdown fractions: 0.42 = 42% slower; 2272 = 2272× slower.
type Figure9Row struct {
	Workload string
	// Checks is the number of license checks the run performs.
	Checks int

	FLaaSOverhead float64
	GlamOverhead  float64
	SLOverhead    float64

	// Breakdown for SecureLease: SGX partition cost, local allocations,
	// and renewals (the paper's stacked bars).
	SLSGXOverhead     float64
	SLLocalAllocShare float64 // fraction of SL lease time spent on local allocation
	RemoteAttestsSL   int64
	RemoteAttestsFL   int64
}

// Figure9Result reproduces Figure 9 plus the headline aggregates of
// Section 7.4.
type Figure9Result struct {
	Rows []Figure9Row
	// MeanImprovementOverFLaaS — paper: 66.34%.
	MeanImprovementOverFLaaS float64
	// MeanImprovementOverGlam — paper: 19.55%.
	MeanImprovementOverGlam float64
	// RAReduction vs F-LaaS — paper: ≈99%.
	RAReduction float64
}

// figure9Checks returns the license-check count for a workload run: FaaS
// workloads check per function invocation (the paper's 10K-500K range),
// classic applications check per add-on use.
func figure9Checks(spec *workloads.Spec, scale int) int {
	checks := spec.ChecksPerRun
	if checks < 1 {
		checks = 1
	}
	if checks > 50_000 {
		checks = 50_000
	}
	return checks
}

// figure9VanillaCycles is the normalized vanilla runtime every overhead is
// measured against. The paper's workloads run for on the order of a
// minute on real inputs (Table 4's multi-GB scales); our profiles use
// scaled-down inputs, so the lease-machinery costs (which are absolute —
// attestations, network) are charged against a paper-scale baseline to
// keep the ratios meaningful. Partition overheads are ratios over the
// trace and are scale-invariant.
func figure9VanillaCycles(model sgx.CostModel) int64 {
	return model.DurationToCycles(60 * time.Second)
}

// Figure9 runs the full pipeline for every workload: profile → partitions
// → cost model for the SGX part, plus a real SL-Local/SL-Manager run for
// the lease part, and the F-LaaS remote-attestation-per-check model.
func Figure9(scale int, seed int64) (*Figure9Result, error) {
	model := sgx.DefaultCostModel()
	est := partition.NewEstimator(model)
	res := &Figure9Result{}

	var imprFL, imprGlam []float64
	var raSL, raFL int64

	for _, spec := range workloads.All() {
		prof, err := spec.Run(scale)
		if err != nil {
			return nil, fmt.Errorf("harness: running %s: %w", spec.Name, err)
		}
		sl, err := partition.SecureLease(prof.Graph, prof.Trace, partition.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		gl, err := partition.Glamdring(prof.Graph, 1)
		if err != nil {
			return nil, err
		}
		slCost := est.Evaluate(prof.Graph, prof.Trace, sl.Migrated)
		glCost := est.Evaluate(prof.Graph, prof.Trace, gl.Migrated)

		vanillaCycles := figure9VanillaCycles(model)
		checks := figure9Checks(spec, scale)

		// SecureLease lease path: run the real stack and measure the
		// virtual cycles it charges.
		leaseCycles, localShare, ras, err := runLeasePath(spec.License, checks, model)
		if err != nil {
			return nil, fmt.Errorf("harness: lease path for %s: %w", spec.Name, err)
		}

		// Glamdring uses the same lease mechanism (the paper enables it
		// with SecureLease's method), with ~8% fewer ECALLs because the
		// bigger enclave internalizes more of the logic. The discount
		// applies only to the local part of lease time — the remote
		// attestations are identical for both systems.
		raCycles := ras * model.DurationToCycles(model.RemoteAttest)
		glamLeaseCycles := raCycles + (leaseCycles-raCycles)*92/100

		// F-LaaS: every license check is a remote attestation.
		flaasRACycles := int64(checks) * model.DurationToCycles(model.RemoteAttest)

		// Partition overheads (slowdown ratios over the trace) are
		// scale-invariant; lease-machinery costs are absolute cycles and
		// are charged against the normalized vanilla runtime.
		row := Figure9Row{
			Workload: spec.Name,
			Checks:   checks,
			// F-LaaS uses the same migrated set as SecureLease (the
			// paper's fair-comparison setup), so its SGX part matches.
			FLaaSOverhead:     slCost.PredictedOverhead + float64(flaasRACycles)/float64(vanillaCycles),
			GlamOverhead:      glCost.PredictedOverhead + float64(glamLeaseCycles)/float64(vanillaCycles),
			SLOverhead:        slCost.PredictedOverhead + float64(leaseCycles)/float64(vanillaCycles),
			SLSGXOverhead:     slCost.PredictedOverhead,
			SLLocalAllocShare: localShare,
			RemoteAttestsSL:   ras,
			RemoteAttestsFL:   int64(checks),
		}
		res.Rows = append(res.Rows, row)

		tFL, tGL, tSL := 1+row.FLaaSOverhead, 1+row.GlamOverhead, 1+row.SLOverhead
		imprFL = append(imprFL, (tFL-tSL)/tFL)
		imprGlam = append(imprGlam, (tGL-tSL)/tGL)
		raSL += ras
		raFL += int64(checks)
	}

	var sumFL, sumGlam float64
	for i := range imprFL {
		sumFL += imprFL[i]
		sumGlam += imprGlam[i]
	}
	res.MeanImprovementOverFLaaS = sumFL / float64(len(imprFL))
	res.MeanImprovementOverGlam = sumGlam / float64(len(imprGlam))
	if raFL > 0 {
		res.RAReduction = 1 - float64(raSL)/float64(raFL)
	}
	return res, nil
}

// runLeasePath executes `checks` license checks through a real
// SL-Remote → SL-Local → SL-Manager stack on a fresh machine and returns
// the virtual cycles consumed by the lease machinery (SL-Local's init
// included: the machine's clock starts at zero), the fraction of that
// time spent in local allocation (vs renewals), and the number of remote
// attestations performed.
func runLeasePath(license string, checks int, model sgx.CostModel) (cycles int64, localShare float64, ras int64, err error) {
	sys, err := core.NewSystem(core.Config{MachineName: "fig9", EPCBytes: 16 << 20, Model: model})
	if err != nil {
		return 0, 0, 0, err
	}
	// License sized so renewals happen at a realistic cadence: with the
	// paper's D=4 sub-leasing the run needs a couple of renewals.
	total := int64(checks) * 2
	if total < 2000 {
		total = 2000
	}
	if err := sys.RegisterLicense(license, lease.CountBased, total); err != nil {
		return 0, 0, 0, err
	}
	app, err := sys.LaunchApp("fig9")
	if err != nil {
		return 0, 0, 0, err
	}
	for i := 0; i < checks; i++ {
		if err := app.Authorize(license); err != nil {
			return 0, 0, 0, fmt.Errorf("check %d: %w", i, err)
		}
	}
	m := sys.Machine()
	cycles = m.Clock().Now()
	stats := m.Stats()
	ras = stats.RemoteAttests
	raCycles := ras * model.DurationToCycles(model.RemoteAttest)
	if cycles > 0 {
		localShare = float64(cycles-raCycles) / float64(cycles)
	}
	return cycles, localShare, ras, nil
}

// Render prints the figure's series as a table.
func (r *Figure9Result) Render() string {
	header := []string{"Workload", "Checks", "F-LaaS", "Glamdring", "SecureLease",
		"SL SGX-only", "SL local share", "RAs SL/FLaaS"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload,
			fmtCount(int64(row.Checks)),
			fmtOverhead(row.FLaaSOverhead),
			fmtOverhead(row.GlamOverhead),
			fmtOverhead(row.SLOverhead),
			fmtOverhead(row.SLSGXOverhead),
			fmt.Sprintf("%.1f%%", 100*row.SLLocalAllocShare),
			fmt.Sprintf("%d/%d", row.RemoteAttestsSL, row.RemoteAttestsFL),
		})
	}
	out := renderTable("Figure 9: end-to-end overhead vs vanilla (slowdown fraction; × = multiples)", header, rows)
	out += fmt.Sprintf("\nMean improvement over F-LaaS:    %.1f%% (paper: 66.34%%)\n", 100*r.MeanImprovementOverFLaaS)
	out += fmt.Sprintf("Mean improvement over Glamdring: %.1f%% (paper: 19.55%%)\n", 100*r.MeanImprovementOverGlam)
	out += fmt.Sprintf("Remote-attestation reduction:    %.1f%% (paper: ≈99%%)\n", 100*r.RAReduction)
	return out
}

func fmtOverhead(v float64) string {
	if v >= 10 {
		return fmt.Sprintf("%.0f×", v)
	}
	return fmt.Sprintf("%.1f%%", 100*v)
}
