package harness

import (
	"reflect"
	"strings"
	"testing"
)

func TestAblationPartition(t *testing.T) {
	res, err := AblationPartition(1, 7)
	if err != nil {
		t.Fatalf("AblationPartition: %v", err)
	}
	if len(res.Rows) != 11*4 {
		t.Fatalf("rows = %d, want 44", len(res.Rows))
	}
	// The security requirement holds under every variant: a key function
	// always ends up inside.
	for _, row := range res.Rows {
		if !row.KeyInside {
			t.Errorf("%s/%s: no key function migrated", row.Workload, row.Variant)
		}
		if row.Migrated == 0 {
			t.Errorf("%s/%s: empty partition", row.Workload, row.Variant)
		}
	}
	// The full partitioner must not be worse than the crippled variants
	// on mean overhead, and at least one ablation must be strictly worse
	// (otherwise the refinements are dead code).
	full := res.MeanOverhead("full")
	worse := 0
	for _, v := range []string{"no-merge", "no-trim", "no-merge-no-trim"} {
		m := res.MeanOverhead(v)
		if m < full-1e-9 {
			t.Errorf("variant %s mean overhead %.3f beats full %.3f", v, m, full)
		}
		if m > full*1.5+0.01 {
			worse++
		}
	}
	if worse == 0 {
		t.Error("no ablation shows a meaningful cost — refinements look like dead code")
	}
	out := res.Render()
	if !strings.Contains(out, "Ablation") || !strings.Contains(out, "no-merge") {
		t.Fatalf("render malformed")
	}
}

func TestAblationBatch(t *testing.T) {
	res, err := AblationBatch(1000)
	if err != nil {
		t.Fatalf("AblationBatch: %v", err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The sweep runs on the simulated clock, so every row is exact.
	want := []AblationBatchRow{
		{Batch: 1, LocalAttests: 1000, LeaseCycles: 517000000},
		{Batch: 2, LocalAttests: 500, LeaseCycles: 258500000},
		{Batch: 5, LocalAttests: 200, LeaseCycles: 103400000},
		{Batch: 10, LocalAttests: 100, LeaseCycles: 51700000},
		{Batch: 20, LocalAttests: 50, LeaseCycles: 25850000},
		{Batch: 50, LocalAttests: 20, LeaseCycles: 10340000},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %+v\nwant %+v", res.Rows, want)
	}
	// Attestations must decrease monotonically with batch size, and the
	// batch-10 row must show ~10× fewer than batch-1.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].LocalAttests >= res.Rows[i-1].LocalAttests {
			t.Errorf("batch %d attests %d not below batch %d's %d",
				res.Rows[i].Batch, res.Rows[i].LocalAttests,
				res.Rows[i-1].Batch, res.Rows[i-1].LocalAttests)
		}
		if res.Rows[i].LeaseCycles >= res.Rows[i-1].LeaseCycles {
			t.Errorf("batch %d cycles %d not below batch %d's %d",
				res.Rows[i].Batch, res.Rows[i].LeaseCycles,
				res.Rows[i-1].Batch, res.Rows[i-1].LeaseCycles)
		}
	}
	var b1, b10 int64
	for _, row := range res.Rows {
		switch row.Batch {
		case 1:
			b1 = row.LocalAttests
		case 10:
			b10 = row.LocalAttests
		}
	}
	if b1 != 10*b10 {
		t.Errorf("batch 1 = %d attests, batch 10 = %d; want exact 10×", b1, b10)
	}
	if !strings.Contains(res.Render(), "token batch size") {
		t.Fatal("render malformed")
	}
}

func TestAblationD(t *testing.T) {
	res, err := AblationD(4000)
	if err != nil {
		t.Fatalf("AblationD: %v", err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	want := []AblationDRow{
		{D: 1, Renewals: 1, MaxOutstanding: 8000},
		{D: 2, Renewals: 1, MaxOutstanding: 4000},
		{D: 4, Renewals: 2, MaxOutstanding: 4000},
		{D: 8, Renewals: 4, MaxOutstanding: 4000},
		{D: 16, Renewals: 8, MaxOutstanding: 4000},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %+v\nwant %+v", res.Rows, want)
	}
	// Larger D → more renewals, smaller crash exposure (both monotone).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Renewals < res.Rows[i-1].Renewals {
			t.Errorf("D=%v renewals %d below D=%v's %d",
				res.Rows[i].D, res.Rows[i].Renewals, res.Rows[i-1].D, res.Rows[i-1].Renewals)
		}
		if res.Rows[i].MaxOutstanding > res.Rows[i-1].MaxOutstanding {
			t.Errorf("D=%v exposure %d above D=%v's %d",
				res.Rows[i].D, res.Rows[i].MaxOutstanding, res.Rows[i-1].D, res.Rows[i-1].MaxOutstanding)
		}
	}
	if !strings.Contains(res.Render(), "scale-down factor D") {
		t.Fatal("render malformed")
	}
}

func TestScalableSGX(t *testing.T) {
	res, err := ScalableSGX(1, 7)
	if err != nil {
		t.Fatalf("ScalableSGX: %v", err)
	}
	if len(res.Rows) != 22 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	glamFaultsClassic := false
	for _, row := range res.Rows {
		// The 512 GB EPC clears all faults for everyone.
		if row.FaultsScalable != 0 {
			t.Errorf("%s/%s: faults under scalable SGX = %d", row.Workload, row.Scheme, row.FaultsScalable)
		}
		if row.Scheme == "securelease" && row.FaultsClassic != 0 {
			t.Errorf("%s: SecureLease faults under classic EPC = %d", row.Workload, row.FaultsClassic)
		}
		if row.Scheme == "glamdring" && row.FaultsClassic > 0 {
			glamFaultsClassic = true
		}
		if row.OverheadScalable > row.OverheadClassic+1e-9 {
			t.Errorf("%s/%s: scalable overhead above classic", row.Workload, row.Scheme)
		}
	}
	if !glamFaultsClassic {
		t.Error("Glamdring never faults under the classic EPC")
	}
	if !strings.Contains(res.Render(), "scalable SGX") {
		t.Fatal("render malformed")
	}
}

func TestFleet(t *testing.T) {
	clients := []FleetClient{
		{Name: "stable", Health: 0.99, Reliability: 0.95, Weight: 1},
		{Name: "flaky-net", Health: 0.95, Reliability: 0.6, Weight: 1},
		{Name: "crashy", Health: 0.5, Reliability: 0.9, Weight: 1},
		{Name: "weak", Health: 0.7, Reliability: 0.7, Weight: 0.5},
	}
	const pool = 100_000
	res, err := Fleet(clients, 6, pool, 42)
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	if res.ChecksServed == 0 {
		t.Fatal("fleet served nothing")
	}
	if res.UnitsGranted > pool {
		t.Fatalf("granted %d from a %d pool", res.UnitsGranted, pool)
	}
	if res.ChecksServed+res.UnitsLost > res.UnitsGranted {
		t.Fatalf("served %d + lost %d exceeds granted %d",
			res.ChecksServed, res.UnitsLost, res.UnitsGranted)
	}
	// With a crashy fleet there must be crashes and forfeitures.
	if res.Crashes == 0 {
		t.Fatal("no crashes in a fleet with health 0.5 over 6 epochs")
	}
	if res.UnitsLost == 0 {
		t.Fatal("crashes forfeited nothing")
	}
	if !strings.Contains(res.Render(), "Fleet") {
		t.Fatal("render malformed")
	}
	if _, err := Fleet(nil, 1, 100, 1); err == nil {
		t.Fatal("empty fleet accepted")
	}
}
