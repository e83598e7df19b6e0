package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json at the repository root declares what this program
// measures; the program prints from the catalogue. The two must agree.
func TestManifestMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", m.RunSeconds, runSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", m.Paths)
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in the manifest, %d in the catalogue", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, catalogue %+v", i, m.Workloads[i], w)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the catalogue", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := m.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end-to-end metric %d: manifest %+v, catalogue %+v", i, e, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the catalogue", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := m.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per-layer metric %d: manifest %+v, catalogue %+v", i, e, d)
		}
	}
}

func TestCatalogueWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not 1-64 letters, digits, _ . -", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadDefs {
		check(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.name, len(w.why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.name)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", d.name, d.bound)
		}
		setup = setup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
	for _, d := range perLayer {
		check(d.name)
		if d.moves == "" || d.on == "" {
			t.Errorf("%s: no prediction of what it moves, and where", d.name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloadDefs) > 8 {
		t.Error("catalogue exceeds the manifest's limits")
	}
}
