package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json at the
// repository root and the metrics this command prints in step.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a hostbench workload", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, hostbench has %d", len(spec.Workloads), len(workloads))
	}
	same := func(kind string, json []struct{ Name, Unit string }, ours []metricName) {
		if len(json) != len(ours) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, hostbench reports %d", kind, len(json), len(ours))
			return
		}
		for i := range ours {
			if json[i].Name != ours[i].name || json[i].Unit != ours[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), hostbench %s (%s)",
					kind, i, json[i].Name, json[i].Unit, ours[i].name, ours[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
