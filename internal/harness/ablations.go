package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/partition"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slremote"
	"repro/internal/workloads"
)

// AblationPartitionRow is one workload × partitioner-variant cell of the
// partitioning ablation: it isolates the contribution of the two design
// refinements the SecureLease partitioner makes over a bare
// "k-means + greedy" (cluster coarsening and data-structure trimming).
type AblationPartitionRow struct {
	Workload string
	Variant  string
	// Migrated is the enclave function count.
	Migrated int
	// Overhead is the predicted slowdown over vanilla.
	Overhead float64
	// EPCFaults per the estimator.
	EPCFaults int64
	// KeyInside reports whether at least one key function migrated (the
	// security requirement).
	KeyInside bool
}

// AblationPartitionResult collects the partitioning ablation.
type AblationPartitionResult struct {
	Rows []AblationPartitionRow
}

// AblationPartition runs SecureLease's partitioner with each refinement
// disabled in turn, across all workloads.
func AblationPartition(scale int, seed int64) (*AblationPartitionResult, error) {
	variants := []struct {
		name string
		opts partition.Options
	}{
		{"full", partition.Options{Seed: seed}},
		{"no-merge", partition.Options{Seed: seed, DisableClusterMerge: true}},
		{"no-trim", partition.Options{Seed: seed, DisableTrim: true}},
		{"no-merge-no-trim", partition.Options{Seed: seed, DisableClusterMerge: true, DisableTrim: true}},
	}
	est := partition.NewEstimator(sgx.DefaultCostModel())
	res := &AblationPartitionResult{}
	for _, spec := range workloads.All() {
		prof, err := spec.Run(scale)
		if err != nil {
			return nil, fmt.Errorf("harness: running %s: %w", spec.Name, err)
		}
		for _, v := range variants {
			p, err := partition.SecureLease(prof.Graph, prof.Trace, v.opts)
			if err != nil {
				return nil, fmt.Errorf("harness: %s/%s: %w", spec.Name, v.name, err)
			}
			cost := est.Evaluate(prof.Graph, prof.Trace, p.Migrated)
			keyInside := false
			for f := range p.Migrated {
				if n := prof.Graph.Node(f); n != nil && n.KeyFunction {
					keyInside = true
					break
				}
			}
			res.Rows = append(res.Rows, AblationPartitionRow{
				Workload:  spec.Name,
				Variant:   v.name,
				Migrated:  len(p.MigratedList()),
				Overhead:  cost.PredictedOverhead,
				EPCFaults: cost.EPCFaults,
				KeyInside: keyInside,
			})
		}
	}
	return res, nil
}

// MeanOverhead returns the mean predicted overhead of one variant.
func (r *AblationPartitionResult) MeanOverhead(variant string) float64 {
	var sum float64
	var n int
	for _, row := range r.Rows {
		if row.Variant == variant {
			sum += row.Overhead
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render prints the ablation as a table.
func (r *AblationPartitionResult) Render() string {
	header := []string{"Workload", "Variant", "Migrated fns", "Overhead", "EPC faults", "Key inside"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload, row.Variant,
			fmt.Sprintf("%d", row.Migrated),
			fmtOverhead(row.Overhead),
			fmtCount(row.EPCFaults),
			fmt.Sprintf("%v", row.KeyInside),
		})
	}
	out := renderTable("Ablation: partitioner refinements (cluster merge, data trim)", header, rows)
	out += fmt.Sprintf("\nMean overhead — full: %s, no-merge: %s, no-trim: %s, neither: %s\n",
		fmtOverhead(r.MeanOverhead("full")), fmtOverhead(r.MeanOverhead("no-merge")),
		fmtOverhead(r.MeanOverhead("no-trim")), fmtOverhead(r.MeanOverhead("no-merge-no-trim")))
	return out
}

// AblationBatchRow is one token-batch-size point: the attestation count
// and lease-path virtual cycles for a fixed burst of license checks.
type AblationBatchRow struct {
	Batch        int
	LocalAttests int64
	LeaseCycles  int64
}

// AblationBatchResult sweeps the tokens-per-attestation parameter
// (Section 7.3 fixes it at 10; this shows the curve).
type AblationBatchResult struct {
	Checks int
	Rows   []AblationBatchRow
}

// AblationBatch runs a fixed burst of checks at several batch sizes.
func AblationBatch(checks int) (*AblationBatchResult, error) {
	if checks <= 0 {
		checks = 2000
	}
	res := &AblationBatchResult{Checks: checks}
	for _, batch := range []int{1, 2, 5, 10, 20, 50} {
		sys, err := core.NewSystem(core.Config{
			MachineName: "ablate", EPCBytes: 8 << 20, Local: sllocal.Config{TokenBatch: batch},
		})
		if err != nil {
			return nil, err
		}
		if err := sys.RegisterLicense("lic", lease.CountBased, int64(checks)*10); err != nil {
			return nil, err
		}
		m, svc := sys.Machine(), sys.Local()
		app, err := m.CreateEnclave("app", []byte("app"), 0)
		if err != nil {
			return nil, err
		}
		start := m.Clock().Now()
		rasBefore := m.Stats().RemoteAttests
		issued := 0
		for issued < checks {
			tok, err := svc.RequestToken(app, "lic")
			if err != nil {
				return nil, fmt.Errorf("harness: batch %d after %d checks: %w", batch, issued, err)
			}
			for tok.Use() && issued < checks {
				issued++
			}
		}
		cycles := m.Clock().Since(start)
		// Exclude renewal RAs so the row isolates the local path.
		ras := m.Stats().RemoteAttests - rasBefore
		cycles -= ras * m.Model().DurationToCycles(m.Model().RemoteAttest)
		res.Rows = append(res.Rows, AblationBatchRow{
			Batch:        batch,
			LocalAttests: svc.Stats().LocalAttests,
			LeaseCycles:  cycles,
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *AblationBatchResult) Render() string {
	header := []string{"Tokens/attest", "Local attests", "Local lease cycles", "Cycles/check"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Batch),
			fmtCount(row.LocalAttests),
			fmtCount(row.LeaseCycles),
			fmt.Sprintf("%.0f", float64(row.LeaseCycles)/float64(r.Checks)),
		})
	}
	return renderTable(fmt.Sprintf("Ablation: token batch size (%d checks)", r.Checks), header, rows)
}

// AblationDRow is one scale-down-factor point of the D sweep: how the
// sub-lease divisor trades renewal round trips against crash exposure.
type AblationDRow struct {
	D float64
	// Renewals needed to serve the burst.
	Renewals int64
	// MaxOutstanding is the largest sub-GCL held at once — the crash
	// exposure the pessimistic policy would forfeit.
	MaxOutstanding int64
}

// AblationDResult sweeps D (the paper uses 4, i.e. g = 25% of G).
type AblationDResult struct {
	Checks int
	Rows   []AblationDRow
}

// AblationD serves a fixed burst under different D values.
func AblationD(checks int) (*AblationDResult, error) {
	if checks <= 0 {
		checks = 4000
	}
	res := &AblationDResult{Checks: checks}
	for _, d := range []float64{1, 2, 4, 8, 16} {
		cfg := slremote.DefaultConfig()
		cfg.D = d
		sys, err := core.NewSystem(core.Config{
			MachineName: "ablate-d", EPCBytes: 8 << 20, Local: sllocal.Config{TokenBatch: 10}, Remote: cfg,
		})
		if err != nil {
			return nil, err
		}
		if err := sys.RegisterLicense("lic", lease.CountBased, int64(checks)*2); err != nil {
			return nil, err
		}
		remote, svc := sys.Remote(), sys.Local()
		app, err := sys.Machine().CreateEnclave("app", []byte("app"), 0)
		if err != nil {
			return nil, err
		}
		var maxOut int64
		issued := 0
		for issued < checks {
			tok, err := svc.RequestToken(app, "lic")
			if err != nil {
				return nil, fmt.Errorf("harness: D=%v after %d checks: %w", d, issued, err)
			}
			if out := remote.Outstanding(svc.SLID(), "lic"); out > maxOut {
				maxOut = out
			}
			for tok.Use() && issued < checks {
				issued++
			}
		}
		res.Rows = append(res.Rows, AblationDRow{
			D:              d,
			Renewals:       svc.Stats().Renewals,
			MaxOutstanding: maxOut,
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *AblationDResult) Render() string {
	header := []string{"D", "Renewals", "Max outstanding (crash exposure)"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", row.D),
			fmt.Sprintf("%d", row.Renewals),
			fmtCount(row.MaxOutstanding),
		})
	}
	out := renderTable(fmt.Sprintf("Ablation: scale-down factor D (%d checks; paper uses D=4)", r.Checks), header, rows)
	out += "\nSmaller D = fewer renewals but larger crash exposure; D=4 is the paper's balance.\n"
	return out
}

// ScalableSGXRow compares a partition's fault behaviour under the classic
// 92 MB EPC and the 512 GB scalable-SGX EPC (Section 7.5).
type ScalableSGXRow struct {
	Workload         string
	Scheme           string
	FaultsClassic    int64
	FaultsScalable   int64
	OverheadClassic  float64
	OverheadScalable float64
}

// ScalableSGXResult is the Section 7.5 what-if.
type ScalableSGXResult struct {
	Rows []ScalableSGXRow
}

// ScalableSGX evaluates both partitions under both EPC sizes.
func ScalableSGX(scale int, seed int64) (*ScalableSGXResult, error) {
	res := &ScalableSGXResult{}
	classic := partition.NewEstimator(sgx.DefaultCostModel())
	scalable := partition.NewEstimator(sgx.DefaultCostModel())
	scalable.SetEPCBudget(512 << 30)
	for _, spec := range workloads.All() {
		prof, err := spec.Run(scale)
		if err != nil {
			return nil, err
		}
		sl, err := partition.SecureLease(prof.Graph, prof.Trace, partition.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		gl, err := partition.Glamdring(prof.Graph, 1)
		if err != nil {
			return nil, err
		}
		for _, s := range []struct {
			name string
			p    *partition.Partition
		}{{"securelease", sl}, {"glamdring", gl}} {
			c := classic.Evaluate(prof.Graph, prof.Trace, s.p.Migrated)
			sc := scalable.Evaluate(prof.Graph, prof.Trace, s.p.Migrated)
			res.Rows = append(res.Rows, ScalableSGXRow{
				Workload:         spec.Name,
				Scheme:           s.name,
				FaultsClassic:    c.EPCFaults,
				FaultsScalable:   sc.EPCFaults,
				OverheadClassic:  c.PredictedOverhead,
				OverheadScalable: sc.PredictedOverhead,
			})
		}
	}
	return res, nil
}

// Render prints the what-if.
func (r *ScalableSGXResult) Render() string {
	header := []string{"Workload", "Scheme", "Faults 92MB", "Faults 512GB", "Overhead 92MB", "Overhead 512GB"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Workload, row.Scheme,
			fmtCount(row.FaultsClassic), fmtCount(row.FaultsScalable),
			fmtOverhead(row.OverheadClassic), fmtOverhead(row.OverheadScalable),
		})
	}
	out := renderTable("Section 7.5 what-if: classic vs scalable SGX EPC", header, rows)
	out += "\nScalable SGX removes the fault gap but not the isolation/TCB argument\nfor partitioning (and SecureLease's lease machinery is EPC-agnostic).\n"
	return out
}
