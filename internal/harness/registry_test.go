package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestRegistry: every experiment is declared completely and once, has
// its row in DESIGN.md's index, and the committed baseline holds exactly
// the gated ones — a stale or missing section of BENCH_baseline.json
// fails here, not only in CI.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{SelectAll: true, SelectGated: true} // not experiment names
	var gated []string
	for i, e := range Experiments {
		if e.Name == "" || e.Ref == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("entry %d (%q): name, reference, description and Run are all required", i, e.Name)
		}
		if seen[e.Name] {
			t.Errorf("entry %d: name %q is already taken", i, e.Name)
		}
		seen[e.Name] = true
		if got := Select(e.Name); len(got) != 1 || got[0].Name != e.Name {
			t.Errorf("Select(%q) = %d entries, want that one", e.Name, len(got))
		}
		if e.Gated {
			gated = append(gated, e.Name)
		}
	}
	if got := Select(SelectAll); len(got) != len(Experiments) {
		t.Errorf("Select(all) = %d entries, want %d", len(got), len(Experiments))
	}
	if got := Select(SelectGated); len(got) != len(gated) {
		t.Errorf("Select(gated) = %d entries, want %d", len(got), len(gated))
	}
	if got := Select("nosuch"); got != nil {
		t.Errorf("Select(nosuch) = %d entries, want none", len(got))
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments {
		if row := "`cmd/rhythm-bench " + e.Name + "`"; !bytes.Contains(design, []byte(row)) {
			t.Errorf("DESIGN.md's experiment index has no %s", row)
		}
	}

	f, err := os.Open("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inBaseline := map[string]bool{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var r struct{ Experiment string }
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("BENCH_baseline.json: %v in %q", err, sc.Text())
		}
		if r.Experiment != "env" {
			inBaseline[r.Experiment] = true
		}
	}
	var have []string
	for name := range inBaseline {
		have = append(have, name)
	}
	sort.Strings(have)
	sort.Strings(gated)
	if !reflect.DeepEqual(have, gated) {
		t.Errorf("BENCH_baseline.json holds %v, the registry gates %v; regenerate with\n\tgo run ./cmd/rhythm-bench -json gated > BENCH_baseline.json", have, gated)
	}
}
