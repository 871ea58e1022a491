package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTheHarness keeps BENCHMARK.json, which the
// benchmark's users read, in step with the metric tables the harness
// prints from.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the harness: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, harness has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the harness", w.Name)
		}
	}
	for _, set := range []struct {
		name string
		json []metric
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(set.json) != len(set.defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, harness has %d", set.name, len(set.json), len(set.defs))
			continue
		}
		for i, m := range set.json {
			d := set.defs[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", set.name, i, m, d)
			}
			if (m.Bound != nil) != (set.name == "end_to_end") {
				t.Errorf("%s: bound on %s is %v", set.name, m.Name, m.Bound)
			}
		}
	}
}
