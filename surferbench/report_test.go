package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNameGrammar(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "é", string(make([]byte, 65))} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"setup_s", "partition.cut_edges", "9x", "a-b.c_d"} {
		if !nameRE.MatchString(good) {
			t.Errorf("name %q rejected", good)
		}
	}
	seen := map[string]bool{}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q breaks the grammar", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q breaks the grammar", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q breaks the grammar or is reused", w.name)
		}
		seen[w.name] = true
	}
}

// TestBenchmarkFile checks that BENCHMARK.json describes exactly what the
// program runs and prints.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || m.Better != "lower" {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", layer, perLayer)
	}
}
