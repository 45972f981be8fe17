package harness

import (
	"reflect"
	"testing"
)

func TestFleetSeededDeterminism(t *testing.T) {
	clients := []FleetClient{
		{Name: "stable", Health: 0.99, Reliability: 0.95, Weight: 1},
		{Name: "flaky-net", Health: 0.95, Reliability: 0.6, Weight: 1},
		{Name: "crashy", Health: 0.5, Reliability: 0.9, Weight: 1},
	}
	run := func(seed int64) *FleetResult {
		res, err := Fleet(clients, 5, 50_000, seed)
		if err != nil {
			t.Fatalf("Fleet: %v", err)
		}
		return res
	}
	a, b := run(11), run(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different FleetResult:\n %+v\n %+v", a, b)
	}
}
