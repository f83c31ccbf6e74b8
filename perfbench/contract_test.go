package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric names and units the benchmark reports are the ones
// BENCHMARK.json declares, and every declared workload is implemented.
func TestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, declared []struct{ Name, Unit string }, have []struct{ name, unit string }) {
		if len(declared) != len(have) {
			t.Fatalf("%s: %d declared, %d reported", kind, len(declared), len(have))
		}
		for i := range declared {
			if declared[i].Name != have[i].name || declared[i].Unit != have[i].unit {
				t.Errorf("%s %d: declared %s [%s], reported %s [%s]", kind, i,
					declared[i].Name, declared[i].Unit, have[i].name, have[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eUnits)
	same("per_layer", b.PerLayer, layerUnits)
}
