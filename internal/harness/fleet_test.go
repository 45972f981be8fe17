package harness

import (
	"reflect"
	"testing"
)

func TestFleetSeededDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name    string
		clients []FleetClient
		epochs  int
		pool    int64
		seed    int64
	}{
		{"three-clients", []FleetClient{
			{Name: "stable", Health: 0.99, Reliability: 0.95, Weight: 1},
			{Name: "flaky-net", Health: 0.95, Reliability: 0.6, Weight: 1},
			{Name: "crashy", Health: 0.5, Reliability: 0.9, Weight: 1},
		}, 5, 50_000, 11},
		{"two-clients", []FleetClient{
			{Name: "a", Health: 0.8, Reliability: 0.8, Weight: 1},
			{Name: "b", Health: 0.9, Reliability: 0.9, Weight: 1},
		}, 4, 20_000, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() *FleetResult {
				res, err := Fleet(tc.clients, tc.epochs, tc.pool, tc.seed)
				if err != nil {
					t.Fatalf("Fleet: %v", err)
				}
				return res
			}
			if a, b := run(), run(); !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different FleetResult:\n %+v\n %+v", a, b)
			}
		})
	}
}
