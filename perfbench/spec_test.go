package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root must list exactly the metrics
// the harness reports, with the same units and directions.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, harness has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d = %q, want %q with a reason", i, w.Name, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, harness has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d = %+v, harness has %+v", i, m, s)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, harness has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer %d = %+v, harness has %+v", i, m, s)
		}
	}
}

func TestEmitKeepsExactlyTheSpecs(t *testing.T) {
	got, missing := emit(endToEnd, map[string]float64{"setup_s": 1.5, "extra": 2})
	if len(got) != len(endToEnd) || got["setup_s"].Value != 1.5 || got["setup_s"].Unit != "s" {
		t.Errorf("emit = %v", got)
	}
	if _, ok := got["extra"]; ok {
		t.Error("emit kept a metric outside the specs")
	}
	if len(missing) != len(endToEnd)-1 {
		t.Errorf("missing = %v", missing)
	}
}
