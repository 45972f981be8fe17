package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sgx"
	"repro/internal/workloads"
)

func TestTable1ShapeAndRender(t *testing.T) {
	res, err := Table1(10)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !res.TreeFasterThanHashes() {
		t.Log(res.Render())
		t.Fatal("tree is not the fastest store at 5000 ops (paper's Table 1 shape)")
	}
	// SHA-256 must be the slowest at the largest op count.
	var tree, mur, sha time.Duration
	for _, row := range res.Rows {
		switch row.Technique {
		case "Tree":
			tree = row.Latency[5000]
		case "Murmur Hash":
			mur = row.Latency[5000]
		case "SHA-256":
			sha = row.Latency[5000]
		}
	}
	if !(tree < mur && mur < sha) {
		t.Fatalf("ordering tree(%v) < murmur(%v) < sha(%v) violated", tree, mur, sha)
	}
	out := res.Render()
	for _, want := range []string{"Table 1", "Tree", "Murmur Hash", "SHA-256", "5000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable5ShapeAndAggregates(t *testing.T) {
	res, err := Table5(1, 7)
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	if len(res.Rows) != 11 {
		t.Fatalf("rows = %d, want 11 workloads", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.SLEPCFaults != 0 {
			t.Errorf("%s: SecureLease faults = %d, want 0", row.Workload, row.SLEPCFaults)
		}
		if row.SLEPCBytes > 92<<20 {
			t.Errorf("%s: SecureLease EPC %d exceeds the EPC", row.Workload, row.SLEPCBytes)
		}
		// Every workload improves or sits at near-parity (the paper's
		// smallest gap is blockchain at 3.3%; our blockchain lands within
		// noise of zero because Glamdring's taint swallows main).
		if row.PerfImprovement < -0.02 {
			t.Errorf("%s: negative improvement %.3f", row.Workload, row.PerfImprovement)
		}
		if row.SLDynCoverage <= 0 || row.SLDynCoverage > 1 {
			t.Errorf("%s: dynamic coverage %.3f out of range", row.Workload, row.SLDynCoverage)
		}
	}
	// Paper-shaped aggregates: sizeable static reduction, high dynamic
	// coverage, positive mean improvement.
	if res.GeomeanStaticReduction < 0.2 {
		t.Errorf("static reduction %.3f too small for the paper's shape", res.GeomeanStaticReduction)
	}
	if res.GeomeanDynCoverage < 0.5 {
		t.Errorf("dynamic coverage %.3f too small", res.GeomeanDynCoverage)
	}
	if res.MeanPerfImprovement <= 0 {
		t.Errorf("mean improvement %.3f not positive", res.MeanPerfImprovement)
	}
	out := res.Render()
	for _, want := range []string{"Table 5", "bfs", "matmult", "paper: 67.8%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestTable6ShapeAndRender(t *testing.T) {
	res, err := Table6()
	if err != nil {
		t.Fatalf("Table6: %v", err)
	}
	if !res.EvictionFlattens() {
		t.Log(res.Render())
		t.Fatal("eviction does not flatten the footprint (paper's Table 6 shape)")
	}
	// The tree under budget must beat array and hash at 50K leases.
	foot := make(map[string]int64)
	for _, row := range res.Rows {
		foot[row.Config] = row.Footprint[50_000]
	}
	if foot["SecureLease"] >= foot["Array"] || foot["SecureLease"] >= foot["Hash (Murmur)"] {
		t.Fatalf("SecureLease %d not smaller than array %d / hash %d at 50K",
			foot["SecureLease"], foot["Array"], foot["Hash (Murmur)"])
	}
	// Section 5.2.3's "up to 94%" memory win: require ≥80% vs the hash.
	if float64(foot["SecureLease"]) > 0.2*float64(foot["Hash (Murmur)"]) {
		t.Fatalf("memory win too small: %d vs %d", foot["SecureLease"], foot["Hash (Murmur)"])
	}
	if !strings.Contains(res.Render(), "Table 6") {
		t.Fatal("render missing title")
	}
}

func TestFigure7DOT(t *testing.T) {
	glam, sl, summary, err := Figure7("openssl", 1, 7)
	if err != nil {
		t.Fatalf("Figure7: %v", err)
	}
	for _, dot := range []string{glam, sl} {
		if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "openssl.decrypt") {
			t.Fatalf("malformed DOT:\n%s", dot[:200])
		}
	}
	if !strings.Contains(summary, "Figure 7") {
		t.Fatalf("summary = %q", summary)
	}
	if _, _, _, err := Figure7("nope", 1, 7); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestFigure8BatchingSpeedup(t *testing.T) {
	res, err := Figure8(60 * time.Millisecond)
	if err != nil {
		t.Fatalf("Figure8: %v", err)
	}
	if len(res.Points) != len(Figure8Concurrency)*4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Allocations <= 0 {
			t.Fatalf("zero allocations at %+v", p)
		}
	}
	// Batching must deliver a substantial speedup (paper: ≈10×; allow ≥3×
	// under simulation noise in tiny windows).
	if sp := res.BatchingSpeedup(); sp < 3 {
		t.Log(res.Render())
		t.Fatalf("batching speedup %.2f×, want ≥3×", sp)
	}
	if !strings.Contains(res.Render(), "Figure 8") {
		t.Fatal("render missing title")
	}
}

func TestFigure9Shape(t *testing.T) {
	res, err := Figure9(1, 7)
	if err != nil {
		t.Fatalf("Figure9: %v", err)
	}
	if len(res.Rows) != 11 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// The paper's ordering: SecureLease ≤ Glamdring < F-LaaS, with
		// blockchain at near-parity (5% slack).
		if row.SLOverhead > 1.05*row.GlamOverhead {
			t.Errorf("%s: SL %.3f > Glamdring %.3f", row.Workload, row.SLOverhead, row.GlamOverhead)
		}
		if row.SLOverhead >= row.FLaaSOverhead {
			t.Errorf("%s: SL %.3f not better than F-LaaS %.3f", row.Workload, row.SLOverhead, row.FLaaSOverhead)
		}
		if row.RemoteAttestsSL >= row.RemoteAttestsFL && row.Checks > 1 {
			t.Errorf("%s: RAs %d/%d — no reduction", row.Workload, row.RemoteAttestsSL, row.RemoteAttestsFL)
		}
	}
	// Headlines: big win over F-LaaS, positive win over Glamdring, big RA
	// reduction.
	if res.MeanImprovementOverFLaaS < 0.5 {
		t.Errorf("improvement over F-LaaS %.3f, want ≥0.5 (paper 0.6634)", res.MeanImprovementOverFLaaS)
	}
	if res.MeanImprovementOverGlam <= 0 {
		t.Errorf("improvement over Glamdring %.3f, want >0 (paper 0.1955)", res.MeanImprovementOverGlam)
	}
	if res.RAReduction < 0.9 {
		t.Errorf("RA reduction %.3f, want ≥0.9 (paper ≈0.99)", res.RAReduction)
	}
	// At least one FaaS workload must show an extreme F-LaaS overhead
	// (the paper's 2272× bar).
	extreme := false
	for _, row := range res.Rows {
		if row.FLaaSOverhead > 100 {
			extreme = true
		}
	}
	if !extreme {
		t.Error("no workload shows the paper's extreme F-LaaS overhead (>100×)")
	}
	out := res.Render()
	for _, want := range []string{"Figure 9", "paper: 66.34%", "paper: 19.55%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

// TestLeasePathPinned pins Figure 9's lease-path measurements — virtual
// cycles, local-allocation share and remote attestations per workload —
// at exact values. The lease path runs on the simulated clock, so any
// change to how the stack is composed or initialized that moves a single
// charged cycle shows here.
func TestLeasePathPinned(t *testing.T) {
	want := map[string]struct {
		checks     int
		cycles     int64
		localShare float64
		ras        int64
	}{
		"bfs":        {1000, 30506301500, 0.0018455695129086691, 3},
		"btree":      {1000, 30506301500, 0.0018455695129086691, 3},
		"hashjoin":   {1000, 30506301500, 0.0018455695129086691, 3},
		"openssl":    {1000, 30506301500, 0.0018455695129086691, 3},
		"pagerank":   {1000, 30506301500, 0.0018455695129086691, 3},
		"blockchain": {1000, 30506301500, 0.0018455695129086691, 3},
		"svm":        {1000, 30506301500, 0.0018455695129086691, 3},
		"mapreduce":  {10000, 30971601500, 0.016841282811933377, 3},
		"keyvalue":   {50000, 33039601500, 0.07837871470695552, 3},
		"jsonparser": {10000, 30971601500, 0.016841282811933377, 3},
		"matmult":    {2000, 30558001500, 0.003534311627021813, 3},
	}
	model := sgx.DefaultCostModel()
	for _, spec := range workloads.All() {
		w, ok := want[spec.Name]
		if !ok {
			t.Errorf("%s: no pinned row", spec.Name)
			continue
		}
		checks := figure9Checks(spec, 1)
		cycles, share, ras, err := runLeasePath(spec.License, checks, model)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if checks != w.checks || cycles != w.cycles || share != w.localShare || ras != w.ras {
			t.Errorf("%s: checks %d, cycles %d, local share %v, RAs %d; want %d, %d, %v, %d",
				spec.Name, checks, cycles, share, ras, w.checks, w.cycles, w.localShare, w.ras)
		}
	}
}

func TestRenderHelpers(t *testing.T) {
	if got := fmtBytes(1536); got != "1.5KB" {
		t.Fatalf("fmtBytes(1536) = %q", got)
	}
	if got := fmtBytes(3 << 30); got != "3.0GB" {
		t.Fatalf("fmtBytes(3GB) = %q", got)
	}
	if got := fmtBytes(100); got != "100B" {
		t.Fatalf("fmtBytes(100) = %q", got)
	}
	if got := fmtCount(2_500_000); got != "2.5M" {
		t.Fatalf("fmtCount = %q", got)
	}
	if got := fmtCount(999); got != "999" {
		t.Fatalf("fmtCount = %q", got)
	}
	if got := fmtOverhead(25); got != "25×" {
		t.Fatalf("fmtOverhead(25) = %q", got)
	}
	if got := fmtOverhead(0.42); got != "42.0%" {
		t.Fatalf("fmtOverhead(0.42) = %q", got)
	}
	if g := geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Fatalf("geomean = %v", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
	table := renderTable("T", []string{"a", "bb"}, [][]string{{"1", "2"}})
	if !strings.Contains(table, "T\n") || !strings.Contains(table, "--") {
		t.Fatalf("renderTable output:\n%s", table)
	}
}
