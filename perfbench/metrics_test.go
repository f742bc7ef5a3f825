package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the checkout root and
// the metrics this program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []metric, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
			return
		}
		for i := range declared {
			if declared[i].Name != printed[i].name || declared[i].Unit != printed[i].unit {
				t.Errorf("%s metric %d: declared %s [%s], printed %s [%s]", kind, i,
					declared[i].Name, declared[i].Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json declares %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
}
