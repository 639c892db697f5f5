package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesTables: BENCHMARK.json at the repository root
// declares the metrics this program prints, in the same order and
// units, under the naming rules the file format sets.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || (unit != "" && !unitRE.MatchString(unit)) || seen[name] {
			t.Errorf("bad or repeated name/unit %q %q", name, unit)
		}
		seen[name] = true
	}
	for _, w := range bj.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		check(m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, endToEnd[i])
		}
	}
	for i, m := range bj.PerLayer {
		check(m.Name, m.Unit)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, perLayer[i])
		}
	}
}
